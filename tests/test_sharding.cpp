// ShardedKernel contract tests: thread-count byte-identity of traces,
// cross-shard mailbox delivery at the lookahead boundary, the
// zero-lookahead sequential fallback, cancel semantics across shards,
// clear()'s slot+generation teardown of outstanding cross-shard handles,
// and a faulted network run pinned byte for byte at one and four shards.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/latency.hpp"
#include "net/network.hpp"
#include "overlay/gossip.hpp"
#include "sim/sharding.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace ds = decentnet::sim;
namespace dn = decentnet::net;
namespace ov = decentnet::overlay;

namespace {

/// Collects records in memory for structural assertions.
class VecSink final : public ds::TraceSink {
 public:
  void record(const ds::TraceRecord& rec) override { records.push_back(rec); }
  std::vector<ds::TraceRecord> records;
};

/// A kernel-only workload that exercises every shard and the mailboxes:
/// per-shard re-posting chains, with every 4th step hopping to the next
/// shard at now + lookahead. Returns the serialized trace.
std::string kernel_workload_trace(std::size_t shards, std::size_t threads) {
  std::ostringstream out;
  {
    ds::JsonlTraceSink sink(out);
    ds::ShardedKernel kernel(/*seed=*/7, shards);
    const ds::SimDuration kWindow = ds::millis(5);
    kernel.set_lookahead(kWindow);
    kernel.set_trace(&sink);
    std::function<void(std::size_t, int)> step = [&](std::size_t s,
                                                     int remaining) {
      if (remaining <= 0) return;
      if (remaining % 4 == 0 && shards > 1) {
        const std::size_t dst = (s + 1) % shards;
        kernel.post_cross(dst, kernel.shard(s).now() + kWindow,
                          [&step, dst, remaining] { step(dst, remaining - 1); },
                          "test/hop");
      } else {
        kernel.shard(s).post(ds::millis(1),
                             [&step, s, remaining] { step(s, remaining - 1); },
                             "test/step");
      }
    };
    for (std::size_t s = 0; s < shards; ++s) {
      kernel.shard(s).post(ds::millis(1), [&step, s] { step(s, 20); },
                           "test/start");
    }
    kernel.run_until(ds::seconds(2), threads);
  }
  return out.str();
}

/// A network workload over a sharded kernel: a small gossip mesh with a
/// constant-latency model (lookahead = the constant). Returns the trace.
std::string gossip_workload_trace(std::size_t shards, std::size_t threads) {
  std::ostringstream out;
  {
    ds::JsonlTraceSink sink(out);
    ds::ShardedKernel kernel(/*seed=*/11, shards);
    kernel.set_trace(&sink);
    const std::size_t n = 24;
    dn::Network netw(kernel.shard(0),
                     std::make_unique<dn::ConstantLatency>(ds::millis(10)),
                     dn::NetworkConfig{.expected_nodes = n}, nullptr);
    netw.enable_sharding(kernel);
    EXPECT_EQ(kernel.lookahead(), ds::millis(10));

    std::vector<dn::NodeId> addrs(n);
    for (std::size_t i = 0; i < n; ++i) addrs[i] = netw.new_node_id();
    for (std::size_t i = 0; i < n; ++i) netw.register_node(addrs[i]);
    ov::GossipConfig cfg;
    cfg.fanout = 3;
    std::vector<std::unique_ptr<ov::GossipNode>> nodes;
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<ov::GossipNode>(netw, addrs[i], cfg));
      std::vector<dn::NodeId> view;
      for (std::size_t d = 1; d <= 4; ++d) view.push_back(addrs[(i + d) % n]);
      nodes.back()->join(view);
    }
    netw.simulator_for(addrs[0]).post(ds::millis(1), [&] {
      nodes[0]->broadcast(/*rumor=*/1, /*payload_bytes=*/64);
    });
    kernel.run_until(ds::seconds(30), threads);
  }
  return out.str();
}

}  // namespace

TEST(Sharding, SingleShardMatchesPlainSimulator) {
  // S == 1 must be the legacy kernel bit-for-bit: same seed, same trace.
  std::ostringstream plain_out;
  {
    ds::JsonlTraceSink sink(plain_out);
    ds::Simulator simu(7);
    simu.set_trace(&sink);
    int fired = 0;
    for (int i = 0; i < 50; ++i) {
      simu.post(ds::millis(i % 7), [&fired] { ++fired; }, "test/step");
    }
    simu.run_until(ds::seconds(1));
    EXPECT_EQ(fired, 50);
  }
  std::ostringstream sharded_out;
  {
    ds::JsonlTraceSink sink(sharded_out);
    ds::ShardedKernel kernel(7, 1);
    kernel.set_trace(&sink);
    int fired = 0;
    for (int i = 0; i < 50; ++i) {
      kernel.shard(0).post(ds::millis(i % 7), [&fired] { ++fired; },
                           "test/step");
    }
    kernel.run_until(ds::seconds(1));
    EXPECT_EQ(fired, 50);
    // No windows, no mailboxes: a 1-shard kernel registers no sim/shard/*
    // counters, so merging its metrics adds nothing to a plain run's.
    ds::MetricRegistry merged;
    kernel.merge_metrics_into(merged);
    EXPECT_TRUE(merged.counters().empty());
    EXPECT_TRUE(merged.histograms().empty());
  }
  EXPECT_EQ(plain_out.str(), sharded_out.str());
}

TEST(Sharding, KernelTraceByteIdenticalAcrossThreadCounts) {
  const std::string t1 = kernel_workload_trace(4, 1);
  const std::string t2 = kernel_workload_trace(4, 2);
  const std::string t4 = kernel_workload_trace(4, 4);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t4);
}

TEST(Sharding, NetworkTraceByteIdenticalAcrossThreadCounts) {
  const std::string t1 = gossip_workload_trace(4, 1);
  const std::string t2 = gossip_workload_trace(4, 2);
  const std::string t4 = gossip_workload_trace(4, 4);
  EXPECT_FALSE(t1.empty());
  // The mesh actually gossiped: the trace carries cross-shard sends.
  EXPECT_NE(t1.find("\"send\""), std::string::npos);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t4);
}

TEST(Sharding, CrossShardArrivesAtExactLookaheadBoundary) {
  // A parcel posted at exactly now + W (the earliest legal cross-shard
  // time) must fire at that time, not a window later and never clamped.
  ds::ShardedKernel kernel(3, 2);
  const ds::SimDuration kWindow = ds::millis(10);
  kernel.set_lookahead(kWindow);
  ds::SimTime fired_at = 0;
  std::uint32_t fired_on = ~0u;
  kernel.shard(0).post(ds::millis(25), [&] {
    kernel.post_cross(1, kernel.shard(0).now() + kWindow, [&] {
      fired_at = kernel.shard(1).now();
      fired_on = ds::ShardedKernel::current_shard();
    });
  });
  kernel.run_until(ds::seconds(1), 2);
  EXPECT_EQ(fired_at, ds::millis(35));
  EXPECT_EQ(fired_on, 1u);
}

TEST(Sharding, CrossShardChainKeepsExactTimesAcrossManyWindows) {
  // Ping-pong between two shards, always at the minimum legal distance;
  // every hop must land at exactly the previous time + W.
  ds::ShardedKernel kernel(3, 2);
  const ds::SimDuration kWindow = ds::millis(7);
  kernel.set_lookahead(kWindow);
  std::vector<ds::SimTime> hops;
  std::function<void(std::size_t, int)> hop = [&](std::size_t s, int left) {
    hops.push_back(kernel.shard(s).now());
    if (left == 0) return;
    const std::size_t dst = 1 - s;
    kernel.post_cross(dst, kernel.shard(s).now() + kWindow,
                      [&hop, dst, left] { hop(dst, left - 1); });
  };
  kernel.shard(0).post(0, [&hop] { hop(0, 20); });
  kernel.run_until(ds::seconds(1), 2);
  ASSERT_EQ(hops.size(), 21u);
  for (std::size_t i = 0; i < hops.size(); ++i) {
    EXPECT_EQ(hops[i], static_cast<ds::SimTime>(i) * kWindow);
  }
}

TEST(Sharding, ZeroLookaheadFallsBackSequentialWithWarning) {
  // A degenerate window (no lookahead configured) must still execute
  // correctly — sequential stepping — and say so exactly once.
  VecSink sink;
  ds::ShardedKernel kernel(5, 2);
  kernel.set_trace(&sink);
  EXPECT_TRUE(kernel.degenerate());
  ds::SimTime cross_at = 0;
  int local_fired = 0;
  kernel.shard(0).post(ds::millis(2), [&] {
    ++local_fired;
    kernel.post_cross(1, kernel.shard(0).now() + ds::millis(3),
                      [&] { cross_at = kernel.shard(1).now(); });
  });
  kernel.run_until(ds::seconds(1), 4);  // thread request must be ignored
  EXPECT_EQ(local_fired, 1);
  EXPECT_EQ(cross_at, ds::millis(5));
  std::size_t warns = 0;
  for (const auto& rec : sink.records) {
    if (std::string(rec.kind) == "warn") {
      ++warns;
      EXPECT_EQ(std::string(rec.tag), "sharding/zero_lookahead");
      EXPECT_EQ(rec.a, 2u);
    }
  }
  EXPECT_EQ(warns, 1u);
  // A second run must not warn again.
  kernel.run_until(ds::seconds(2), 4);
  std::size_t warns2 = 0;
  for (const auto& rec : sink.records) {
    if (std::string(rec.kind) == "warn") ++warns2;
  }
  EXPECT_EQ(warns2, 1u);
}

TEST(Sharding, CancelAcrossShardsBetweenRuns) {
  // Handles to events on any shard stay cancellable from the driver thread
  // while no window is executing.
  ds::ShardedKernel kernel(9, 4);
  kernel.set_lookahead(ds::millis(10));
  int fired = 0;
  auto h1 = kernel.shard(1).schedule(ds::millis(50), [&] { ++fired; });
  auto h3 = kernel.shard(3).schedule(ds::millis(50), [&] { ++fired; });
  auto keep = kernel.shard(2).schedule(ds::millis(50), [&] { ++fired; });
  EXPECT_TRUE(h1.valid());
  h1.cancel();  // before the first run
  kernel.run_until(ds::millis(20), 4);
  EXPECT_TRUE(h3.valid());
  h3.cancel();  // between runs
  EXPECT_FALSE(h3.valid());
  kernel.run_until(ds::millis(100), 4);
  EXPECT_EQ(fired, 1);  // only `keep`
  EXPECT_FALSE(keep.valid());  // fired => invalid
}

TEST(Sharding, ClearInvalidatesOutstandingCrossShardHandles) {
  // The teardown regression: clear() must invalidate handles held across
  // shards (slot+generation contract) and drop undelivered mailbox parcels.
  ds::ShardedKernel kernel(13, 3);
  kernel.set_lookahead(ds::millis(10));
  int fired = 0;
  auto h0 = kernel.shard(0).schedule(ds::millis(5), [&] { ++fired; });
  auto h2 = kernel.shard(2).schedule(ds::millis(500), [&] { ++fired; });
  // An undrained parcel in the (0 -> 1) mailbox.
  kernel.post_cross(1, ds::millis(20), [&] { ++fired; });
  EXPECT_GT(kernel.pending_events(), 0u);

  kernel.clear();
  EXPECT_FALSE(h0.valid());
  EXPECT_FALSE(h2.valid());
  EXPECT_EQ(kernel.pending_events(), 0u);
  kernel.run_until(ds::seconds(1), 3);
  EXPECT_EQ(fired, 0);  // parcels were dropped, events released

  // Slot-reuse staleness: new events recycle the cleared slots; the stale
  // pre-clear handles must read invalid and their cancel() must be a no-op
  // on the new occupants.
  // Shards 0 and 2 fire in the same window on different threads.
  std::atomic<int> refired = 0;
  auto n0 = kernel.shard(0).schedule(ds::millis(5), [&] { ++refired; });
  auto n2 = kernel.shard(2).schedule(ds::millis(5), [&] { ++refired; });
  EXPECT_FALSE(h0.valid());
  EXPECT_FALSE(h2.valid());
  h0.cancel();
  h2.cancel();
  EXPECT_TRUE(n0.valid());
  EXPECT_TRUE(n2.valid());
  kernel.run_until(ds::seconds(2), 3);
  EXPECT_EQ(refired.load(), 2);
}

TEST(Sharding, PerShardStatsAreDeterministic) {
  // sim/shard/* counters: fired events sum to the kernel total, mailbox
  // out == in summed over shards, and none of it depends on threads.
  auto run = [](std::size_t threads) {
    ds::ShardedKernel kernel(17, 4);
    kernel.set_lookahead(ds::millis(5));
    std::function<void(std::size_t, int)> step = [&](std::size_t s,
                                                     int remaining) {
      if (remaining <= 0) return;
      if (remaining % 3 == 0) {
        const std::size_t dst = (s + 1) % 4;
        kernel.post_cross(dst, kernel.shard(s).now() + ds::millis(5),
                          [&step, dst, remaining] { step(dst, remaining - 1); });
      } else {
        kernel.shard(s).post(ds::millis(1),
                             [&step, s, remaining] { step(s, remaining - 1); });
      }
    };
    for (std::size_t s = 0; s < 4; ++s) {
      kernel.shard(s).post(ds::millis(1), [&step, s] { step(s, 12); });
    }
    kernel.run_until(ds::seconds(1), threads);
    ds::MetricRegistry merged;
    kernel.merge_metrics_into(merged);
    std::uint64_t fired = 0, mail_in = 0, mail_out = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      const std::string p = "sim/shard/" + std::to_string(s) + "/";
      fired += merged.counter(p + "fired").value();
      mail_in += merged.counter(p + "mail_in").value();
      mail_out += merged.counter(p + "mail_out").value();
    }
    EXPECT_EQ(fired, kernel.total_events_processed());
    EXPECT_EQ(mail_in, mail_out);
    EXPECT_GT(mail_out, 0u);
    return std::make_tuple(fired, mail_out, kernel.windows_run());
  };
  EXPECT_EQ(run(1), run(4));
}

// ---------------------------------------------------------------------------
// Fault-path characterization: one traced, span-tracked network run that
// reaches every drop reason (partition, unreachable, loss, Tcp bounded
// queue, offline at arrival, offline at send) plus duplication, reorder
// jitter and a latency penalty. Both decompositions are pinned byte for
// byte in tests/golden/, so any change to the send→deliver pipeline that
// moves a record, an RNG draw or a sequence number fails here.
// ---------------------------------------------------------------------------

namespace {

/// Relays every message to two peers picked from its payload until the hop
/// budget (the cookie) runs out, passing the incoming span as the parent.
struct Relay final : dn::Host {
  dn::Network* net = nullptr;
  dn::NodeId self;
  std::vector<dn::NodeId> peers;
  void handle_message(const dn::Message& msg) override {
    if (msg.cookie == 0) return;
    const auto v = static_cast<std::size_t>(dn::payload_as<int>(msg));
    for (std::size_t k = 0; k < 2; ++k) {
      const dn::NodeId to = peers[(v + k + msg.cookie) % peers.size()];
      net->send(self, to, static_cast<int>(v + 1), 3000, msg.cookie - 1,
                msg.span);
    }
  }
};

std::string faulted_network_trace(std::size_t shards, std::size_t threads) {
  std::ostringstream out;
  {
    ds::JsonlTraceSink sink(out);
    ds::ShardedKernel kernel(/*seed=*/23, shards);
    kernel.set_trace(&sink);
    const std::size_t n = 16;
    dn::NetworkConfig cfg;
    cfg.drop_probability = 0.05;
    cfg.transport.mode = dn::TransportMode::Tcp;
    cfg.transport.link.up_bps = 200e3;
    cfg.transport.link.down_bps = 1e6;
    cfg.transport.link.queue_bytes = 9500;
    cfg.expected_nodes = n;
    cfg.track_spans = true;
    dn::Network netw(
        kernel.shard(0),
        std::make_unique<dn::UniformLatency>(ds::millis(10), ds::millis(30)),
        cfg, nullptr);
    netw.enable_sharding(kernel);

    std::vector<dn::NodeId> addrs(n);
    for (std::size_t i = 0; i < n; ++i) addrs[i] = netw.new_node_id();
    for (std::size_t i = 0; i < n; ++i) netw.register_node(addrs[i]);
    // Never registered: sharded sends drop it as offline at send, the
    // single-shard path interns it and drops at arrival.
    const dn::NodeId ghost = netw.new_node_id();

    std::vector<Relay> relays(n);
    for (std::size_t i = 0; i < n; ++i) {
      relays[i].net = &netw;
      relays[i].self = addrs[i];
      for (std::size_t d = 1; d <= 5; ++d) {
        relays[i].peers.push_back(addrs[(i + d) % n]);
      }
      if (i % 3 == 0) relays[i].peers.push_back(ghost);
      netw.attach(addrs[i], &relays[i]);
    }
    netw.add_partition("cut", {{addrs[0].value, addrs[1].value}});
    netw.set_unreachable(addrs[6], true);
    netw.set_latency_penalty(addrs[3], ds::millis(5));
    netw.set_duplicate_probability(0.1);
    netw.set_reorder_jitter(ds::millis(4));

    // Node 9 leaves mid-run on its own shard: messages already in flight
    // to it drop as offline when they arrive.
    netw.simulator_for(addrs[9]).post_at(ds::millis(60),
                                         [&] { netw.detach(addrs[9]); });
    for (std::size_t i = 0; i < 6; ++i) {
      Relay* const origin = &relays[2 + 2 * i];
      netw.simulator_for(origin->self)
          .post_at(ds::millis(1 + 3 * static_cast<int>(i)), [&netw, origin,
                                                             i] {
            const dn::Span root = netw.new_span_root();
            for (std::size_t k = 0; k < 2; ++k) {
              netw.send(origin->self, origin->peers[k],
                        static_cast<int>(i), 3000, /*hops=*/5, root);
            }
          });
    }
    kernel.run_until(ds::seconds(2), threads);
  }
  return out.str();
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(DECENTNET_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// Compare `trace` to golden/`name`; on a mismatch, write the actual bytes
/// next to the test binary (as `name`) and report the first differing line.
void expect_matches_golden(const std::string& trace, const std::string& name) {
  const std::string want = read_golden(name);
  if (trace == want) return;
  std::ofstream(name, std::ios::binary) << trace;
  std::istringstream a(trace), b(want);
  std::string la, lb;
  std::size_t line = 1;
  while (std::getline(a, la) && std::getline(b, lb) && la == lb) ++line;
  ADD_FAILURE() << name << " differs from tests/golden/" << name
                << " at line " << line << " (actual written to ./" << name
                << ")\n  actual: " << la << "\n  golden: " << lb;
}

/// Drop records with `reason`, optionally only those whose preceding record
/// has kind `after` ("fire": dropped at arrival; "span": dropped at send).
std::size_t count_drops(const std::string& trace, const std::string& reason,
                        const std::string& after = "") {
  const std::string drop = "\"kind\":\"drop\",\"tag\":\"" + reason + "\"";
  const std::string prev = "\"kind\":\"" + after + "\"";
  std::istringstream in(trace);
  std::string line, last;
  std::size_t c = 0;
  while (std::getline(in, line)) {
    if (line.find(drop) != std::string::npos &&
        (after.empty() || last.find(prev) != std::string::npos)) {
      ++c;
    }
    last = std::move(line);
  }
  return c;
}

}  // namespace

TEST(Sharding, FaultedNetworkTraceMatchesGoldenAtOneAndFourShards) {
  const std::string s1 = faulted_network_trace(1, 1);
  const std::string s4 = faulted_network_trace(4, 1);
  EXPECT_EQ(faulted_network_trace(4, 2), s4);
  expect_matches_golden(s1, "net_faults_s1.jsonl");
  expect_matches_golden(s4, "net_faults_s4.jsonl");

  for (const std::string* t : {&s1, &s4}) {
    for (const char* reason :
         {"partition", "unreachable", "loss", "queue", "offline"}) {
      EXPECT_GT(count_drops(*t, reason), 0u) << reason;
    }
    EXPECT_NE(t->find("\"kind\":\"dup\""), std::string::npos);
    EXPECT_NE(t->find("\"kind\":\"span\",\"tag\":\"root\""),
              std::string::npos);
    EXPECT_NE(t->find("\"queue_us\":"), std::string::npos);
  }
  // Offline at arrival (the detached node, and the unregistered one on the
  // single-shard path, which interns it) vs offline at send (sharded only).
  EXPECT_GT(count_drops(s1, "offline", "fire"), 0u);
  EXPECT_GT(count_drops(s4, "offline", "fire"), 0u);
  EXPECT_EQ(count_drops(s1, "offline", "span"), 0u);
  EXPECT_GT(count_drops(s4, "offline", "span"), 0u);
}
