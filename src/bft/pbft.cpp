#include "bft/pbft.hpp"

#include <algorithm>
#include <tuple>

#include "crypto/buffer.hpp"

namespace decentnet::bft {

namespace pm = pbft_msg;

namespace {
crypto::Hash256 batch_digest(const std::vector<Command>& batch) {
  crypto::ByteWriter w;
  w.str("pbft-batch").u64(batch.size());
  for (const Command& c : batch) {
    w.u64(c.id).u64(c.client).str(c.op);
  }
  return w.sha256();
}

std::size_t batch_bytes(const std::vector<Command>& batch) {
  std::size_t total = 0;
  for (const Command& c : batch) total += c.wire_bytes;
  return total;
}
}  // namespace

// ---------------------------------------------------------------------------
// PbftReplica
// ---------------------------------------------------------------------------

PbftReplica::PbftReplica(net::Network& net, net::NodeId addr,
                         std::size_t index, PbftConfig config)
    : net_(net),
      sim_(net.simulator()),
      addr_(addr),
      index_(index),
      config_(config),
      m_batches_executed_(net.metrics().counter("bft/pbft_batches_executed")),
      m_commands_executed_(net.metrics().counter("bft/pbft_commands_executed")),
      m_view_changes_(net.metrics().counter("bft/pbft_view_changes")) {
  net_.attach(addr_, this);
}

PbftReplica::~PbftReplica() { net_.detach(addr_); }

void PbftReplica::set_group(std::vector<net::NodeId> replicas) {
  require_group_fits(replicas.size(), "PbftReplica::set_group");
  group_ = std::move(replicas);
}

void PbftReplica::crash() {
  crashed_ = true;
  batch_timer_.cancel();
  view_timer_.cancel();
}

void PbftReplica::recover() {
  crashed_ = false;
  if (has_pending_work()) arm_view_timer();
}

bool PbftReplica::has_pending_work() const {
  return !pending_.empty() || !forwarded_.empty() ||
         max_pre_prepared_seq_ > executed_seq_;
}

template <typename M>
void PbftReplica::multicast(const M& m, std::size_t bytes) {
  for (std::size_t i = 0; i < group_.size(); ++i) {
    if (i == index_) continue;
    net_.send(addr_, group_[i], m, bytes);
  }
}

PbftReplica::SlotState& PbftReplica::slot(std::uint64_t view,
                                          std::uint64_t seq) {
  return slots_[{view, seq}];
}

void PbftReplica::on_request(const Command& cmd) {
  const auto key = std::make_pair(cmd.client, cmd.id);
  if (executed_cmds_.count(key) > 0) {
    // Already executed: re-send the reply (client may have missed it).
    const auto it = client_addrs_.find(cmd.client);
    if (it != client_addrs_.end()) {
      net_.send(addr_, it->second,
                pm::Reply{view_, cmd.id, cmd.client, index_},
                config_.message_bytes);
    }
    return;
  }
  if (!is_primary()) {
    // Forward to the primary and watch it: if nothing executes before the
    // timer fires, suspect the primary and vote for a view change. The
    // request is remembered so it can be re-driven in the new view.
    forwarded_.emplace(key, cmd);
    net_.send(addr_, group_[view_ % group_.size()], pm::Request{cmd},
              config_.message_bytes + cmd.wire_bytes);
    arm_view_timer();
    return;
  }
  if (!seen_pending_.insert(key).second) return;  // batching dedup
  pending_.push_back(cmd);
  if (pending_.size() >= config_.batch_size) {
    flush_batch();
  } else if (!batch_timer_.valid()) {
    batch_timer_ = sim_.schedule(
        config_.batch_delay, [this] {
          if (!crashed_) flush_batch();
        },
        "pbft/batch");
  }
}

void PbftReplica::flush_batch() {
  batch_timer_.cancel();
  if (pending_.empty() || !is_primary()) return;
  std::vector<Command> batch;
  while (!pending_.empty() && batch.size() < config_.batch_size) {
    batch.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  for (const Command& c : batch) seen_pending_.erase({c.client, c.id});
  pm::PrePrepare pp;
  pp.view = view_;
  pp.seq = next_seq_++;
  pp.batch = std::move(batch);
  pp.digest = batch_digest(pp.batch);
  multicast(pp, config_.message_bytes + batch_bytes(pp.batch));
  // Process our own copy.
  SlotState& s = slot(pp.view, pp.seq);
  s.pre_prepare = pp;
  max_pre_prepared_seq_ = std::max(max_pre_prepared_seq_, pp.seq);
  try_prepare(pp.seq, s);
  // The primary watches its own batch too: if it is cut off from its
  // backups (a partition rather than a crash), this times out and it joins
  // the view change instead of staying primary of a dead view forever.
  arm_view_timer();
  if (!pending_.empty()) {
    batch_timer_ = sim_.schedule(
        config_.batch_delay, [this] {
          if (!crashed_) flush_batch();
        },
        "pbft/batch");
  }
}

void PbftReplica::try_prepare(std::uint64_t seq, SlotState& s) {
  if (!s.pre_prepare || s.prepared) return;
  // The primary's pre-prepare counts as its prepare; others' arrive as
  // Prepare messages. 2f prepares (plus the pre-prepare) = prepared.
  if (s.prepares.size() >= quorum_2f()) {
    s.prepared = true;
    pm::Commit c{view_, seq, s.pre_prepare->digest, index_};
    multicast(c, config_.message_bytes);
    s.commits.insert(index_);
    try_commit(seq, s);
  }
}

void PbftReplica::try_commit(std::uint64_t seq, SlotState& s) {
  if (!s.prepared || s.committed) return;
  if (s.commits.size() >= quorum_2f1()) {
    s.committed = true;
    committed_ready_[seq] = view_;
    execute_ready();
    // Committed slots stuck behind sequences we never saw (we were crashed
    // or cut off while the others kept going) need state transfer, not
    // patience.
    if (!committed_ready_.empty() &&
        committed_ready_.begin()->first > executed_seq_ + 1) {
      request_sync();
    }
  }
}

void PbftReplica::execute_ready() {
  for (;;) {
    const auto it = committed_ready_.find(executed_seq_ + 1);
    if (it == committed_ready_.end()) break;
    SlotState& s = slot(it->second, it->first);
    if (s.executed) {
      committed_ready_.erase(it);
      continue;
    }
    s.executed = true;
    ++executed_seq_;
    m_batches_executed_.add();
    // Retained to serve state-transfer requests (in lieu of checkpoints).
    executed_batches_[executed_seq_] = s.pre_prepare->batch;
    view_timer_.cancel();  // progress: the primary is alive
    for (const Command& cmd : s.pre_prepare->batch) {
      const auto key = std::make_pair(cmd.client, cmd.id);
      forwarded_.erase(key);
      if (!executed_cmds_.insert(key).second) continue;
      m_commands_executed_.add();
      if (commit_hook_) commit_hook_(executed_seq_, cmd);
      const auto client = client_addrs_.find(cmd.client);
      if (client != client_addrs_.end()) {
        net_.send(addr_, client->second,
                  pm::Reply{view_, cmd.id, cmd.client, index_},
                  config_.message_bytes);
      }
    }
    committed_ready_.erase(it);
  }
  // Progress resets suspicion, but unfinished slots / stranded requests
  // keep the deadline armed so a primary that stops mid-stream is caught.
  if (has_pending_work()) arm_view_timer();
}

void PbftReplica::arm_view_timer() {
  if (view_timer_.valid()) return;
  view_timer_ = sim_.schedule(
      config_.view_change_timeout, [this] {
        if (!crashed_) start_view_change();
      },
      "pbft/view_change");
}

void PbftReplica::start_view_change() {
  // Escalate past a view change that itself stalled (the target primary may
  // also be down or cut off): each call targets one view beyond whatever we
  // already voted for.
  const std::uint64_t target = std::max(view_ + 1, pending_view_ + 1);
  pending_view_ = target;
  m_view_changes_.add();
  pm::ViewChange vc;
  vc.new_view = target;
  vc.replica = index_;
  // Carry prepared-but-unexecuted batches into the new view, in (view, seq)
  // order: slots_ is hashed, and what the new primary receives must not
  // depend on its bucket layout. A slot's pre-prepare carries the slot's
  // own (view, seq) key.
  for (const auto& [key, s] : slots_) {
    if (s.prepared && !s.executed && s.pre_prepare &&
        key.second > executed_seq_) {
      vc.prepared.push_back(*s.pre_prepare);
    }
  }
  std::sort(vc.prepared.begin(), vc.prepared.end(),
            [](const pm::PrePrepare& a, const pm::PrePrepare& b) {
              return std::tie(a.view, a.seq) < std::tie(b.view, b.seq);
            });
  view_change_votes_[target].insert(index_);
  for (const auto& pp : vc.prepared) {
    view_change_preps_[target].push_back(pp);
  }
  multicast(vc, config_.message_bytes + 64 * vc.prepared.size());
  // Keep escalating if this view change also stalls. Cancel first: a still-
  // armed suspicion timer must not fire on top of the escalation timer (each
  // fire now advances the target view).
  view_timer_.cancel();
  view_timer_ = sim_.schedule(
      config_.view_change_timeout * 2, [this] {
        if (!crashed_) start_view_change();
      },
      "pbft/view_change");
}

void PbftReplica::enter_new_view(
    std::uint64_t view, const std::vector<pm::PrePrepare>& reproposals) {
  if (view <= view_) return;
  view_ = view;
  pending_view_ = 0;
  view_timer_.cancel();
  // Adopt re-proposals: highest seq seen defines where the primary resumes.
  std::uint64_t max_seq = executed_seq_;
  for (const pm::PrePrepare& pp : reproposals) {
    if (pp.seq <= executed_seq_) continue;
    pm::PrePrepare adopted = pp;
    adopted.view = view_;
    SlotState& s = slot(view_, adopted.seq);
    s.pre_prepare = adopted;
    max_pre_prepared_seq_ = std::max(max_pre_prepared_seq_, adopted.seq);
    max_seq = std::max(max_seq, adopted.seq);
    if (!is_primary()) {
      pm::Prepare p{view_, adopted.seq, adopted.digest, index_};
      multicast(p, config_.message_bytes);
      s.prepares.insert(index_);
    }
    try_prepare(adopted.seq, s);
  }
  next_seq_ = max_seq + 1;
  // Remember the installed view so peers still talking in an older one (a
  // healed ex-primary) can be brought forward on first contact.
  last_new_view_ = pm::NewView{view_, reproposals};
  // Re-drive requests that were stranded at the faulty primary — including
  // a demoted primary's own batching queue, which would otherwise sit in
  // pending_ forever now that flush_batch() refuses to propose.
  auto stranded = std::move(forwarded_);
  forwarded_.clear();
  for (const Command& cmd : pending_) {
    stranded.emplace(std::make_pair(cmd.client, cmd.id), cmd);
  }
  pending_.clear();
  seen_pending_.clear();
  batch_timer_.cancel();
  for (const auto& [key, cmd] : stranded) {
    on_request(cmd);
  }
  // We may have been out for a while (the very reason for the view change):
  // ask the group for executed batches we missed.
  request_sync();
}

void PbftReplica::request_sync() {
  const std::uint64_t need = executed_seq_ + 1;
  if (sync_requested_for_ == need &&
      sim_.now() - sync_requested_at_ < config_.view_change_timeout) {
    return;
  }
  sync_requested_for_ = need;
  sync_requested_at_ = sim_.now();
  multicast(pm::SyncRequest{need, index_}, config_.message_bytes);
}

bool PbftReplica::locally_prepared(std::uint64_t seq,
                                   const crypto::Hash256& digest) const {
  for (const auto& [key, s] : slots_) {
    if (key.second == seq && s.prepared && s.pre_prepare &&
        s.pre_prepare->digest == digest) {
      return true;
    }
  }
  return false;
}

void PbftReplica::apply_synced(std::uint64_t seq,
                               const std::vector<Command>& batch) {
  executed_seq_ = seq;
  m_batches_executed_.add();
  executed_batches_[seq] = batch;
  committed_ready_.erase(seq);
  for (const Command& cmd : batch) {
    const auto key = std::make_pair(cmd.client, cmd.id);
    forwarded_.erase(key);
    if (!executed_cmds_.insert(key).second) continue;
    m_commands_executed_.add();
    if (commit_hook_) commit_hook_(executed_seq_, cmd);
    const auto client = client_addrs_.find(cmd.client);
    if (client != client_addrs_.end()) {
      net_.send(addr_, client->second,
                pm::Reply{view_, cmd.id, cmd.client, index_},
                config_.message_bytes);
    }
  }
}

void PbftReplica::maybe_resync(net::NodeId peer, std::uint64_t their_view) {
  if (!last_new_view_ || last_new_view_->view <= their_view) return;
  std::uint64_t& sent = resync_sent_[peer.value];
  if (sent >= last_new_view_->view) return;  // once per peer per view
  sent = last_new_view_->view;
  net_.send(addr_, peer, *last_new_view_,
            config_.message_bytes + 64 * last_new_view_->reproposals.size());
}

void PbftReplica::handle_message(const net::Message& msg) {
  if (crashed_ || group_.empty()) return;
  if (msg.is<pm::Request>()) {
    const Command& cmd = net::payload_as<pm::Request>(msg).cmd;
    // Remember the client's address the first time we see it (requests
    // forwarded by peers carry the original client id).
    if (client_addrs_.find(cmd.client) == client_addrs_.end()) {
      const bool from_replica =
          std::find(group_.begin(), group_.end(), msg.from) != group_.end();
      if (!from_replica) client_addrs_[cmd.client] = msg.from;
    }
    on_request(cmd);
    return;
  }
  if (msg.is<pm::PrePrepare>()) {
    const auto& pp = net::payload_as<pm::PrePrepare>(msg);
    if (pp.view != view_) {
      if (pp.view < view_) maybe_resync(msg.from, pp.view);
      return;
    }
    if (is_primary()) return;  // only the primary issues pre-prepares
    if (!(batch_digest(pp.batch) == pp.digest)) return;
    SlotState& s = slot(pp.view, pp.seq);
    if (s.pre_prepare) return;  // no equivocation acceptance
    s.pre_prepare = pp;
    max_pre_prepared_seq_ = std::max(max_pre_prepared_seq_, pp.seq);
    // A pre-prepare is only progress evidence when we are up to date. A
    // primary streaming new sequences while we are stuck behind an execution
    // gap (we missed a quorum during a loss burst) must not keep resetting
    // suspicion, or the gap is never escaped — neither by state transfer
    // nor by a view change.
    if (pp.seq <= executed_seq_ + 1) view_timer_.cancel();
    pm::Prepare p{pp.view, pp.seq, pp.digest, index_};
    multicast(p, config_.message_bytes);
    s.prepares.insert(index_);
    try_prepare(pp.seq, s);
    return;
  }
  if (msg.is<pm::Prepare>()) {
    const auto& p = net::payload_as<pm::Prepare>(msg);
    if (p.view != view_) {
      if (p.view < view_) maybe_resync(msg.from, p.view);
      return;
    }
    SlotState& s = slot(p.view, p.seq);
    if (s.pre_prepare && !(s.pre_prepare->digest == p.digest)) return;
    s.prepares.insert(p.replica);
    try_prepare(p.seq, s);
    return;
  }
  if (msg.is<pm::Commit>()) {
    const auto& c = net::payload_as<pm::Commit>(msg);
    if (c.view != view_) {
      if (c.view < view_) maybe_resync(msg.from, c.view);
      return;
    }
    SlotState& s = slot(c.view, c.seq);
    if (s.pre_prepare && !(s.pre_prepare->digest == c.digest)) return;
    s.commits.insert(c.replica);
    try_commit(c.seq, s);
    return;
  }
  if (msg.is<pm::ViewChange>()) {
    const auto& vc = net::payload_as<pm::ViewChange>(msg);
    if (vc.new_view <= view_) {
      // The sender is behind us (asking for a view we already passed):
      // bring it forward instead of silently dropping its vote.
      maybe_resync(msg.from, vc.new_view - 1);
      return;
    }
    auto& votes = view_change_votes_[vc.new_view];
    if (!votes.insert(vc.replica)) return;
    auto& preps = view_change_preps_[vc.new_view];
    preps.insert(preps.end(), vc.prepared.begin(), vc.prepared.end());
    // Join the view change once anyone else is trying (liveness).
    if (pending_view_ < vc.new_view) {
      pending_view_ = vc.new_view - 1;  // so start_view_change targets it
      view_ = vc.new_view - 1;
      start_view_change();
    }
    if (votes.size() >= quorum_2f1() &&
        vc.new_view % group_.size() == index_) {
      // We are the new primary: dedup re-proposals by seq. When replicas
      // prepared different batches for one seq (across views), the highest
      // view's certificate wins, as in the PBFT new-view rule.
      std::map<std::uint64_t, pm::PrePrepare> by_seq;
      for (const auto& pp : preps) {
        const auto [it, inserted] = by_seq.emplace(pp.seq, pp);
        if (!inserted && pp.view > it->second.view) it->second = pp;
      }
      // Pad sequence holes with null requests: a seq the old primary used
      // but nobody prepared (its pre-prepare died in a loss burst) would
      // otherwise leave a gap below a carried-forward reproposal that no
      // view change or state transfer can ever fill — the group would agree
      // on every executed batch yet re-elect forever without progress.
      if (!by_seq.empty()) {
        const std::uint64_t max_seq = by_seq.rbegin()->first;
        for (std::uint64_t s = executed_seq_ + 1; s < max_seq; ++s) {
          if (by_seq.count(s) > 0) continue;
          pm::PrePrepare null_pp;
          null_pp.view = vc.new_view;
          null_pp.seq = s;
          null_pp.digest = batch_digest(null_pp.batch);
          by_seq.emplace(s, std::move(null_pp));
        }
      }
      pm::NewView nv;
      nv.view = vc.new_view;
      for (auto& [seq, pp] : by_seq) nv.reproposals.push_back(pp);
      multicast(nv, config_.message_bytes + 64 * nv.reproposals.size());
      enter_new_view(nv.view, nv.reproposals);
      // Primal duties resume: re-drive any queue.
      if (!pending_.empty()) flush_batch();
    }
    return;
  }
  if (msg.is<pm::NewView>()) {
    const auto& nv = net::payload_as<pm::NewView>(msg);
    if (nv.view % group_.size() == index_) return;  // we'd have sent it
    enter_new_view(nv.view, nv.reproposals);
    return;
  }
  if (msg.is<pm::SyncRequest>()) {
    const auto& sr = net::payload_as<pm::SyncRequest>(msg);
    if (sr.from_seq > executed_seq_) return;  // nothing to offer
    pm::SyncReply reply;
    reply.replica = index_;
    std::size_t bytes = config_.message_bytes;
    for (std::uint64_t s = sr.from_seq; s <= executed_seq_; ++s) {
      const auto it = executed_batches_.find(s);
      if (it == executed_batches_.end()) continue;  // synced gaps re-filled it
      reply.entries.push_back({s, it->second});
      bytes += config_.message_bytes + batch_bytes(it->second);
    }
    if (!reply.entries.empty()) {
      net_.send(addr_, msg.from, std::move(reply), bytes);
    }
    return;
  }
  if (msg.is<pm::SyncReply>()) {
    const auto& sr = net::payload_as<pm::SyncReply>(msg);
    for (const auto& e : sr.entries) {
      if (e.seq <= executed_seq_) continue;
      auto& candidates = sync_state_[e.seq];
      const crypto::Hash256 digest = batch_digest(e.batch);
      SyncCandidate* cand = nullptr;
      for (auto& c : candidates) {
        if (c.digest == digest) {
          cand = &c;
          break;
        }
      }
      if (cand == nullptr) {
        candidates.push_back(SyncCandidate{digest, e.batch, {}});
        cand = &candidates.back();
      }
      cand->votes.insert(sr.replica);
    }
    // Execute contiguously from the gap, each batch gated on f+1 matching
    // vouchers (one reply could be from a byzantine peer).
    bool advanced = false;
    for (;;) {
      const auto it = sync_state_.find(executed_seq_ + 1);
      if (it == sync_state_.end()) break;
      const SyncCandidate* chosen = nullptr;
      for (const auto& c : it->second) {
        // f+1 matching vouchers prove at least one honest executor. A single
        // reply also suffices when it matches our own prepared certificate
        // for this gap: 2f+1 replicas prepared that digest, so no other
        // batch can have committed here. Without this, a batch executed by
        // only one replica (the others lost the commit quorum to a fault
        // window) can never be transferred and the gap wedges forever.
        if (c.votes.size() >= config_.f + 1 ||
            (!c.votes.empty() &&
             locally_prepared(executed_seq_ + 1, c.digest))) {
          chosen = &c;
          break;
        }
      }
      if (chosen == nullptr) break;
      const std::vector<Command> batch = chosen->batch;  // erase invalidates
      sync_state_.erase(it);
      apply_synced(executed_seq_ + 1, batch);
      advanced = true;
    }
    if (advanced) {
      execute_ready();  // drain commits that were stuck behind the gap
      if (!committed_ready_.empty() &&
          committed_ready_.begin()->first > executed_seq_ + 1) {
        request_sync();
      }
    }
    return;
  }
}

// ---------------------------------------------------------------------------
// PbftClient
// ---------------------------------------------------------------------------

PbftClient::PbftClient(net::Network& net, net::NodeId addr,
                       std::uint64_t client_id, PbftConfig config)
    : net_(net),
      sim_(net.simulator()),
      addr_(addr),
      client_id_(client_id),
      config_(config) {
  net_.attach(addr_, this);
}

PbftClient::~PbftClient() { net_.detach(addr_); }

void PbftClient::set_group(std::vector<net::NodeId> replicas) {
  require_group_fits(replicas.size(), "PbftClient::set_group");
  group_ = std::move(replicas);
}

void PbftClient::submit(std::string op, std::size_t wire_bytes) {
  Command cmd;
  cmd.id = next_cmd_++;
  cmd.client = client_id_;
  cmd.op = std::move(op);
  cmd.wire_bytes = wire_bytes;
  Outstanding out;
  out.cmd = cmd;
  out.started = sim_.now();
  const std::uint64_t id = cmd.id;
  // Retry periodically until enough replies arrive — retries keep the
  // replicas' suspicion timers armed across view changes.
  out.retry = sim_.schedule_periodic(
      config_.view_change_timeout, config_.view_change_timeout, [this, id] {
        const auto it = outstanding_.find(id);
        if (it == outstanding_.end()) return;
        send_request(it->second.cmd, /*to_all=*/true);
      });
  outstanding_.emplace(cmd.id, std::move(out));
  send_request(cmd, /*to_all=*/true);
}

void PbftClient::send_request(const Command& cmd, bool to_all) {
  if (group_.empty()) return;
  if (to_all) {
    for (net::NodeId r : group_) {
      net_.send(addr_, r, pbft_msg::Request{cmd},
                config_.message_bytes + cmd.wire_bytes);
    }
  } else {
    net_.send(addr_, group_.front(), pbft_msg::Request{cmd},
              config_.message_bytes + cmd.wire_bytes);
  }
}

void PbftClient::handle_message(const net::Message& msg) {
  if (!msg.is<pbft_msg::Reply>()) return;
  const auto& r = net::payload_as<pbft_msg::Reply>(msg);
  if (r.client != client_id_) return;
  const auto it = outstanding_.find(r.cmd_id);
  if (it == outstanding_.end()) return;
  it->second.replies.insert(r.replica);
  if (it->second.replies.size() >= config_.f + 1) {
    it->second.retry.cancel();
    const sim::SimDuration latency = sim_.now() - it->second.started;
    const Command cmd = it->second.cmd;
    outstanding_.erase(it);
    ++completed_;
    if (done_) done_(cmd, latency);
  }
}

}  // namespace decentnet::bft
