#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/sharding.hpp"
#include "sim/telemetry.hpp"

namespace decentnet::net {

std::optional<std::string> NetworkConfig::validate() const {
  if (drop_probability < 0 || drop_probability > 1) {
    return "NetworkConfig: drop_probability must be in [0, 1], got " +
           std::to_string(drop_probability);
  }
  if (auto err = transport.validate()) {
    return "NetworkConfig: " + *err;
  }
  return std::nullopt;
}

Network::Network(sim::Simulator& sim, std::unique_ptr<LatencyModel> latency,
                 NetworkConfig config, sim::MetricRegistry* metrics)
    : sim_(sim),
      latency_(std::move(latency)),
      config_(config),
      rng_(sim.rng().fork(0x4E457457u)),
      owned_metrics_(metrics ? nullptr
                             : std::make_unique<sim::MetricRegistry>()),
      metrics_(metrics ? *metrics : *owned_metrics_),
      m_messages_sent_(metrics_.counter("net/messages_sent")),
      m_bytes_sent_(metrics_.counter("net/bytes_sent")),
      m_dropped_partition_(metrics_.counter("net/dropped_partition")),
      m_dropped_unreachable_(metrics_.counter("net/dropped_unreachable")),
      m_dropped_loss_(metrics_.counter("net/dropped_loss")),
      m_dropped_offline_(metrics_.counter("net/dropped_offline")),
      m_dropped_queue_(metrics_.counter("net/queue_dropped")),
      m_duplicated_(metrics_.counter("net/duplicated")),
      m_reordered_(metrics_.counter("net/reordered")),
      m_span_hops_(metrics_.counter("net/span_hops")),
      transport_(config.transport) {
  if (config_.expected_nodes > 0) reserve_nodes(config_.expected_nodes);
}

void Network::HostSlab::grow(std::uint32_t idx) {
  while (capacity_ <= idx) {
    auto chunk = std::make_unique<Host*[]>(std::size_t{1} << kChunkBits);
    std::fill_n(chunk.get(), std::size_t{1} << kChunkBits, nullptr);
    chunks_.push_back(std::move(chunk));
    capacity_ += 1u << kChunkBits;
  }
}

void Network::reserve_nodes(std::size_t n) {
  table_.reserve(n);
  hosts_.reserve(n);
  span_table_.reserve_ids(n);
  // Cold arrays stay lazy; but once materialized, keep growth amortized.
  if (!latency_extra_.empty()) latency_extra_.reserve(n);
  if (!unreachable_.empty()) unreachable_.reserve(n);
  transport_.reserve(n);
}

void Network::set_span_tracking(bool on) { config_.track_spans = on; }

std::uint32_t Network::alloc_span_hop(std::uint32_t parent) {
  const std::uint32_t depth =
      parent != 0 && parent <= span_table_.size()
          ? span_table_.depth(parent) + 1
          : 0;
  m_span_hops_.add();
  return span_table_.alloc(depth);
}

Span Network::new_span_root() {
  if (!config_.track_spans) return {};
  if (kernel_ != nullptr) {
    const std::uint32_t s = sim::ShardedKernel::current_shard();
    sim::Simulator& cur = kernel_->shard(s);
    const std::uint32_t self = alloc_span_hop_sharded(shard_ctx_[s], s, 0);
    if (sim::TraceSink* const tr = cur.trace()) {
      tr->record({cur.now(), "span", "root", self, self, 0, 0});
    }
    return Span{self, self};
  }
  const std::uint32_t self = alloc_span_hop(0);
  if (sim::TraceSink* const tr = sim_.trace()) {
    tr->record({sim_.now(), "span", "root", self, self, 0, 0});
  }
  return Span{self, self};
}

std::uint32_t Network::alloc_span_hop_sharded(NetShard& ctx,
                                              std::uint32_t shard,
                                              std::uint32_t parent) {
  const std::uint32_t depth = parent != 0 ? span_depth(parent) + 1 : 0;
  const std::uint32_t local = ctx.spans.alloc(depth);
  ctx.m_span_hops->add();
  return (shard << kSpanLocalBits) | local;
}

void Network::attach(NodeId id, Host* host) {
  // Sharded runs pre-register every node, so this resolves without
  // mutating the table during the parallel phase (churn re-attaches on the
  // owning shard).
  Host** const slot = hosts_.slot(ensure_node(id));
  if (*slot == nullptr) online_.fetch_add(1, std::memory_order_relaxed);
  *slot = host;
}

void Network::detach(NodeId id) {
  const std::uint32_t idx = table_.index_of(id);
  if (idx == NodeTable::kNoIndex) return;
  Host** const slot = hosts_.slot(idx);
  if (*slot != nullptr) {
    *slot = nullptr;  // cold per-node state survives churn
    online_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Network::enable_sharding(sim::ShardedKernel& kernel) {
  kernel.set_lookahead(latency_->min_latency());
  if (kernel.shard_count() <= 1) return;  // the legacy path *is* that kernel
  if (&kernel.shard(0) != &sim_) {
    throw std::invalid_argument(
        "Network::enable_sharding: the Network must be constructed over "
        "kernel.shard(0)");
  }
  if (kernel.shard_count() > kSpanShardBitsMax) {
    throw std::invalid_argument(
        "Network::enable_sharding: at most 64 shards (span hop encoding)");
  }
  kernel_ = &kernel;
  shard_ctx_.clear();
  for (std::size_t s = 0; s < kernel.shard_count(); ++s) {
    // Same fork tag as the legacy ctor, applied per shard stream: shard 0's
    // context draws are decorrelated from rng_ only because enable_sharding
    // forks shard 0's root again — deterministic either way.
    shard_ctx_.emplace_back(kernel.shard(s).rng().fork(0x4E457457u));
    NetShard& c = shard_ctx_.back();
    sim::MetricRegistry& reg = kernel.metrics(s);
    c.m_messages_sent = &reg.counter("net/messages_sent");
    c.m_bytes_sent = &reg.counter("net/bytes_sent");
    c.m_dropped_partition = &reg.counter("net/dropped_partition");
    c.m_dropped_unreachable = &reg.counter("net/dropped_unreachable");
    c.m_dropped_loss = &reg.counter("net/dropped_loss");
    c.m_dropped_offline = &reg.counter("net/dropped_offline");
    c.m_dropped_queue = &reg.counter("net/queue_dropped");
    c.m_duplicated = &reg.counter("net/duplicated");
    c.m_reordered = &reg.counter("net/reordered");
    c.m_span_hops = &reg.counter("net/span_hops");
  }
}

void Network::register_telemetry(sim::Telemetry& telemetry) {
  if (!shard_ctx_.empty()) {
    // Sharded: rate series over the per-shard counters the send paths bump,
    // under the shard index, so the merged stream is a pure function of the
    // decomposition (the kernel samples at barriers).
    for (std::uint32_t s = 0; s < shard_ctx_.size(); ++s) {
      const NetShard& c = shard_ctx_[s];
      telemetry.add_rate("net/messages_sent", s, *c.m_messages_sent);
      telemetry.add_rate("net/bytes_sent", s, *c.m_bytes_sent);
      telemetry.add_rate("net/queue_dropped", s, *c.m_dropped_queue);
      telemetry.add_rate("net/dropped_loss", s, *c.m_dropped_loss);
      telemetry.add_rate("net/dropped_partition", s, *c.m_dropped_partition);
    }
  } else {
    telemetry.add_rate("net/messages_sent", 0, m_messages_sent_);
    telemetry.add_rate("net/bytes_sent", 0, m_bytes_sent_);
    telemetry.add_rate("net/queue_dropped", 0, m_dropped_queue_);
    telemetry.add_rate("net/dropped_loss", 0, m_dropped_loss_);
    telemetry.add_rate("net/dropped_partition", 0, m_dropped_partition_);
  }
  if (transport_.active()) {
    // Aggregates over every sender's (send-side, single-writer) state;
    // registered under shard 0 by convention since they span all shards.
    // sample() is const, so reading it from the driver at a barrier is safe.
    const Transport* const tx = &transport_;
    telemetry.add_gauge("net/uplink_queued_bytes", 0, [tx](sim::SimTime t) {
      return tx->sample(t).queued_bytes;
    });
    telemetry.add_gauge("net/busy_uplinks", 0, [tx](sim::SimTime t) {
      return static_cast<double>(tx->sample(t).busy_uplinks);
    });
    if (transport_.mode() == TransportMode::Tcp) {
      telemetry.add_gauge("net/cwnd_total_bytes", 0, [tx](sim::SimTime t) {
        return tx->sample(t).cwnd_total;
      });
      telemetry.add_gauge("net/cwnd_max_bytes", 0, [tx](sim::SimTime t) {
        return tx->sample(t).cwnd_max;
      });
    }
  }
}

sim::Simulator& Network::simulator_for(NodeId id) {
  if (kernel_ == nullptr) return sim_;
  return kernel_->shard(kernel_->shard_of(id.value));
}

sim::MetricRegistry& Network::metrics_for(NodeId id) {
  if (kernel_ == nullptr) return metrics_;
  return kernel_->metrics(kernel_->shard_of(id.value));
}

void Network::set_link(NodeId id, const LinkSpec& spec) {
  transport_.set_link(ensure_node(id), spec);
}

void Network::set_latency_penalty(NodeId id, sim::SimDuration extra) {
  const std::uint32_t idx = ensure_node(id);
  if (idx >= latency_extra_.size()) {
    latency_extra_.resize(std::max<std::size_t>(table_.size(), idx + 1), 0);
  }
  latency_extra_[idx] = extra < 0 ? 0 : extra;
}

void Network::add_partition(
    std::string name, std::vector<std::unordered_set<std::uint64_t>> groups) {
  remove_partition(name);
  Partition p;
  p.name = std::move(name);
  bool any = false;
  std::uint32_t index = 0;
  for (const auto& group : groups) {
    for (const std::uint64_t node : group) {
      // Listing a node registers it: the dense side table needs an index,
      // and a partition naming a not-yet-attached node must still apply
      // when that node appears.
      const std::uint32_t idx = ensure_node(NodeId{node});
      if (idx >= p.group_of.size()) p.group_of.resize(idx + 1, kRestGroup);
      p.group_of[idx] = index;
      any = true;
    }
    ++index;
  }
  if (any) partitions_.push_back(std::move(p));
}

void Network::remove_partition(std::string_view name) {
  partitions_.erase(
      std::remove_if(partitions_.begin(), partitions_.end(),
                     [&](const Partition& p) { return p.name == name; }),
      partitions_.end());
}

bool Network::partition_active(std::string_view name) const {
  return std::any_of(partitions_.begin(), partitions_.end(),
                     [&](const Partition& p) { return p.name == name; });
}

void Network::set_partition(std::unordered_set<std::uint64_t> group_a) {
  remove_partition("");
  if (!group_a.empty()) add_partition("", {std::move(group_a)});
}

void Network::set_unreachable(NodeId id, bool unreachable) {
  const std::uint32_t idx = ensure_node(id);
  if (idx >= unreachable_.size()) {
    if (!unreachable) return;  // default already means reachable
    unreachable_.resize(std::max<std::size_t>(table_.size(), idx + 1), 0);
  }
  unreachable_[idx] = unreachable ? 1 : 0;
}

bool Network::partitioned(std::uint32_t a, std::uint32_t b) const {
  // kNoIndex (never-interned endpoint) reads past every side table into the
  // implicit rest group, matching the hash-map semantics for unlisted ids.
  for (const Partition& p : partitions_) {
    const std::uint32_t ga = a < p.group_of.size() ? p.group_of[a]
                                                   : kRestGroup;
    const std::uint32_t gb = b < p.group_of.size() ? p.group_of[b]
                                                   : kRestGroup;
    if (ga != gb) return true;
  }
  return false;
}

void Network::schedule_delivery(Host** dst, sim::SimTime arrive, Message msg,
                                std::uint64_t msg_seq) {
  // Detached event: delivery is fire-and-forget — the kernel's hottest path.
  // The capture carries the resolved Host** slot (chunk-stable, so it
  // outlives any table growth), and delivery does zero hash lookups; the
  // online check is one null test. The untraced capture is sized to exactly
  // fill InlineFn<64>'s inline buffer (Host** + Counter* + 48-byte Message),
  // so steady-state delivery allocates nothing; the traced variant carries
  // more context and may box, which is fine off the fast path.
  if (sim_.trace()) {
    sim_.post_at(
        arrive,
        [this, dst, msg_seq, msg = std::move(msg)] {
          if (*dst == nullptr) {
            m_dropped_offline_.add();
            if (sim::TraceSink* const tr2 = sim_.trace()) {
              tr2->record({sim_.now(), "drop", "offline", msg_seq,
                           msg.from.value, msg.to.value, msg.size_bytes});
            }
            return;
          }
          (*dst)->handle_message(msg);
        },
        "net/deliver");
  } else {
    sim::Counter* const dropped = &m_dropped_offline_;
    sim_.post_at(
        arrive,
        [dst, dropped, msg = std::move(msg)] {
          if (*dst == nullptr) {
            dropped->add();
            return;
          }
          (*dst)->handle_message(msg);
        },
        "net/deliver");
  }
}

void Network::deliver(Message msg) {
  // One predictable branch keeps the legacy path's shape: everything below
  // is exactly the pre-sharding delivery pipeline.
  if (kernel_ != nullptr) [[unlikely]] {
    deliver_sharded(std::move(msg));
    return;
  }
  const std::uint64_t msg_seq = ++messages_sent_;
  bytes_sent_ += msg.size_bytes;
  m_messages_sent_.add();
  m_bytes_sent_.add(msg.size_bytes);

  sim::TraceSink* const tr = sim_.trace();
  if (tr) {
    tr->record({sim_.now(), "send", "", msg_seq, msg.from.value, msg.to.value,
                msg.size_bytes});
  }
  std::uint32_t span_parent = 0;
  if (config_.track_spans) {
    // Chain this message into its propagation tree *before* the drop checks:
    // a dropped message is still a tree edge (a pruned one — the "drop"
    // record that follows shares this msg_seq). The hop id is rewritten into
    // the message so the receiver's relays inherit the right parent. The
    // "span" record itself is emitted later (emit_span), once the transport
    // outcome's queuing delay is known — record order is unchanged because
    // nothing else records in between.
    span_parent = msg.span.hop;
    const std::uint32_t self = alloc_span_hop(span_parent);
    msg.span.hop = self;
    if (msg.span.root == 0) msg.span.root = self;
  }
  const auto emit_span = [&](sim::SimDuration queue_wait) {
    if (config_.track_spans && tr) {
      tr->record({sim_.now(), "span", "", msg.span.hop, msg.span.root,
                  span_parent, span_table_.depth(msg.span.hop),
                  static_cast<std::uint64_t>(queue_wait)});
    }
  };
  const auto trace_drop = [&](const char* reason) {
    emit_span(0);
    if (tr) {
      tr->record({sim_.now(), "drop", reason, msg_seq, msg.from.value,
                  msg.to.value, msg.size_bytes});
    }
  };

  // Resolve both endpoints to dense indices once; every per-node check
  // below is then a bounds test + array load. The receiver is interned
  // (lazily creating its slot, as the hash map's try_emplace used to), the
  // sender is looked up read-only — an unknown sender just reads defaults.
  const std::uint32_t from_idx = table_.index_of(msg.from);
  const std::uint32_t to_idx = ensure_node(msg.to);

  if (!partitions_.empty() && partitioned(from_idx, to_idx)) {
    m_dropped_partition_.add();
    trace_drop("partition");
    return;
  }

  // The Host** slot stays valid for the in-flight event even across churn
  // or table growth (chunked slab; entries never erased).
  Host** const dst = hosts_.slot(to_idx);
  if (unreachable_at(to_idx)) {
    m_dropped_unreachable_.add();
    trace_drop("unreachable");
    return;
  }
  if (config_.drop_probability > 0 && rng_.chance(config_.drop_probability)) {
    m_dropped_loss_.add();
    trace_drop("loss");
    return;
  }

  sim::SimTime depart = sim_.now();
  sim::SimDuration rx_serialize = 0;
  if (transport_.active()) {
    const Transport::Outcome out = transport_.admit(
        ensure_node(msg.from), to_idx, msg.size_bytes, sim_.now());
    if (out.dropped) {
      m_dropped_queue_.add();
      trace_drop("queue");
      return;
    }
    depart = out.depart;
    rx_serialize = out.rx_serialize;
    emit_span(out.queue_wait);
  } else {
    emit_span(0);
  }

  sim::SimDuration prop = latency_->sample(msg.from, msg.to, rng_);
  prop += penalty_of(from_idx) + penalty_of(to_idx);
  if (reorder_jitter_ > 0) {
    const auto extra = static_cast<sim::SimDuration>(
        rng_.uniform_int(static_cast<std::uint64_t>(reorder_jitter_) + 1));
    if (extra > 0) m_reordered_.add();
    prop += extra;
  }
  const sim::SimTime arrive = depart + prop + rx_serialize;

  // Duplication window: the copy trails the original by one more latency
  // sample, modelling a retransmit-style duplicate rather than a same-instant
  // twin (so reordering between copy and original is possible too).
  if (duplicate_probability_ > 0 && rng_.chance(duplicate_probability_)) {
    m_duplicated_.add();
    const sim::SimDuration lag = latency_->sample(msg.from, msg.to, rng_);
    if (tr) {
      tr->record({sim_.now(), "dup", "", msg_seq, msg.from.value,
                  msg.to.value, msg.size_bytes});
    }
    schedule_delivery(dst, arrive + lag, msg, msg_seq);
  }

  schedule_delivery(dst, arrive, std::move(msg), msg_seq);
}

// ---------------------------------------------------------------------------
// Sharded delivery path. Mirrors deliver()/schedule_delivery() step for
// step, but every mutable touch — RNG draws, counters, traffic tallies,
// span hops, message sequencing — goes through the *sending* shard's
// NetShard context, and the final post routes through the kernel's mailbox
// when the receiver lives on another shard. Shared Network state read here
// (partitions, unreachability, latency penalties, the dense node table) is
// configured only between runs, so the parallel phase reads it immutably.
// ---------------------------------------------------------------------------

void Network::schedule_delivery_sharded(std::size_t src_shard,
                                        std::size_t dst_shard, Host** dst,
                                        sim::SimTime arrive, Message msg,
                                        std::uint64_t msg_seq) {
  sim::Simulator* const dsim = &kernel_->shard(dst_shard);
  // The offline-drop counter must belong to the *receiving* shard: the
  // closure runs there.
  sim::Counter* const dropped = shard_ctx_[dst_shard].m_dropped_offline;
  sim::Simulator::Callback fn;
  if (kernel_->trace() != nullptr) {
    fn = [dsim, dst, dropped, msg_seq, msg = std::move(msg)] {
      if (*dst == nullptr) {
        dropped->add();
        if (sim::TraceSink* const tr2 = dsim->trace()) {
          tr2->record({dsim->now(), "drop", "offline", msg_seq,
                       msg.from.value, msg.to.value, msg.size_bytes});
        }
        return;
      }
      (*dst)->handle_message(msg);
    };
  } else {
    // Same 64-byte inline capture shape as the legacy fast path.
    fn = [dst, dropped, msg = std::move(msg)] {
      if (*dst == nullptr) {
        dropped->add();
        return;
      }
      (*dst)->handle_message(msg);
    };
  }
  if (dst_shard == src_shard) {
    dsim->post_at(arrive, std::move(fn), "net/deliver");
  } else {
    kernel_->post_cross(dst_shard, arrive, std::move(fn), "net/deliver");
  }
}

void Network::deliver_sharded(Message msg) {
  const std::uint32_t s = sim::ShardedKernel::current_shard();
  NetShard& ctx = shard_ctx_[s];
  sim::Simulator& cur = kernel_->shard(s);
  // Message sequence numbers carry their shard in the top bits so the
  // merged trace keeps globally unique ids without any cross-shard counter.
  const std::uint64_t msg_seq =
      (static_cast<std::uint64_t>(s) << 48) | ++ctx.messages_sent;
  ctx.bytes_sent += msg.size_bytes;
  ctx.m_messages_sent->add();
  ctx.m_bytes_sent->add(msg.size_bytes);

  sim::TraceSink* const tr = cur.trace();
  if (tr) {
    tr->record({cur.now(), "send", "", msg_seq, msg.from.value, msg.to.value,
                msg.size_bytes});
  }
  std::uint32_t span_parent = 0;
  if (config_.track_spans) {
    span_parent = msg.span.hop;
    const std::uint32_t self = alloc_span_hop_sharded(ctx, s, span_parent);
    msg.span.hop = self;
    if (msg.span.root == 0) msg.span.root = self;
  }
  const auto emit_span = [&](sim::SimDuration queue_wait) {
    if (config_.track_spans && tr) {
      tr->record({cur.now(), "span", "", msg.span.hop, msg.span.root,
                  span_parent, span_depth(msg.span.hop),
                  static_cast<std::uint64_t>(queue_wait)});
    }
  };
  const auto trace_drop = [&](const char* reason) {
    emit_span(0);
    if (tr) {
      tr->record({cur.now(), "drop", reason, msg_seq, msg.from.value,
                  msg.to.value, msg.size_bytes});
    }
  };

  // Find-only index resolution: sharded runs register every node up front,
  // so a miss means "never existed" — treat as offline, mutating nothing.
  const std::uint32_t from_idx = table_.index_of(msg.from);
  const std::uint32_t to_idx = table_.index_of(msg.to);

  if (!partitions_.empty() && partitioned(from_idx, to_idx)) {
    ctx.m_dropped_partition->add();
    trace_drop("partition");
    return;
  }

  if (to_idx == NodeTable::kNoIndex) {
    ctx.m_dropped_offline->add();
    trace_drop("offline");
    return;
  }
  Host** const dst = hosts_.slot(to_idx);
  if (unreachable_at(to_idx)) {
    ctx.m_dropped_unreachable->add();
    trace_drop("unreachable");
    return;
  }
  if (config_.drop_probability > 0 &&
      ctx.rng.chance(config_.drop_probability)) {
    ctx.m_dropped_loss->add();
    trace_drop("loss");
    return;
  }

  // Transport under sharding is safe because all mutable state is
  // send-side, keyed by from_idx, and this code runs on the sender's owning
  // shard (single writer per slot). A kNoIndex sender (never registered —
  // find-only resolution) skips transport state entirely: infinite uplink.
  // Every additive term is >= 0 with sample() >= min_latency(), which is
  // what keeps cross-shard arrivals outside the lookahead window even with
  // queuing delays.
  sim::SimTime depart = cur.now();
  sim::SimDuration rx_serialize = 0;
  if (transport_.active()) {
    const Transport::Outcome out =
        transport_.admit(from_idx, to_idx, msg.size_bytes, cur.now());
    if (out.dropped) {
      ctx.m_dropped_queue->add();
      trace_drop("queue");
      return;
    }
    depart = out.depart;
    rx_serialize = out.rx_serialize;
    emit_span(out.queue_wait);
  } else {
    emit_span(0);
  }

  sim::SimDuration prop = latency_->sample(msg.from, msg.to, ctx.rng);
  prop += penalty_of(from_idx) + penalty_of(to_idx);
  if (reorder_jitter_ > 0) {
    const auto extra = static_cast<sim::SimDuration>(ctx.rng.uniform_int(
        static_cast<std::uint64_t>(reorder_jitter_) + 1));
    if (extra > 0) ctx.m_reordered->add();
    prop += extra;
  }
  const sim::SimTime arrive = depart + prop + rx_serialize;
  const std::size_t dst_shard = kernel_->shard_of(msg.to.value);

  if (duplicate_probability_ > 0 && ctx.rng.chance(duplicate_probability_)) {
    ctx.m_duplicated->add();
    const sim::SimDuration lag = latency_->sample(msg.from, msg.to, ctx.rng);
    if (tr) {
      tr->record({cur.now(), "dup", "", msg_seq, msg.from.value, msg.to.value,
                  msg.size_bytes});
    }
    schedule_delivery_sharded(s, dst_shard, dst, arrive + lag, msg, msg_seq);
  }

  schedule_delivery_sharded(s, dst_shard, dst, arrive, std::move(msg),
                            msg_seq);
}

}  // namespace decentnet::net
