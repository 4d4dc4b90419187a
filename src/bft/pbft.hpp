// Practical Byzantine Fault Tolerance (Castro & Liskov) over the simulated
// network: the consensus family behind permissioned blockchains (§IV, via
// BFT-SMaRt in Hyperledger Fabric).
//
// Implemented: the three-phase normal case (pre-prepare / prepare / commit)
// with request batching, in-order execution, client reply quorums, and a
// functional view change (new primary re-proposes prepared batches). The
// all-to-all quadratic message pattern is exactly what E11 measures against
// PoW and against replica count n = 3f+1.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "bft/rsm.hpp"
#include "crypto/hash.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace decentnet::bft {

struct PbftConfig {
  std::size_t f = 1;  // tolerated byzantine replicas; n = 3f + 1
  std::size_t batch_size = 1;
  sim::SimDuration batch_delay = sim::millis(5);
  sim::SimDuration view_change_timeout = sim::seconds(4);
  std::size_t message_bytes = 96;
};

namespace pbft_msg {
struct Request {
  Command cmd;
};
struct PrePrepare {
  std::uint64_t view;
  std::uint64_t seq;
  crypto::Hash256 digest;
  std::vector<Command> batch;
};
struct Prepare {
  std::uint64_t view;
  std::uint64_t seq;
  crypto::Hash256 digest;
  std::size_t replica;
};
struct Commit {
  std::uint64_t view;
  std::uint64_t seq;
  crypto::Hash256 digest;
  std::size_t replica;
};
struct Reply {
  std::uint64_t view;
  std::uint64_t cmd_id;
  std::uint64_t client;
  std::size_t replica;
};
struct ViewChange {
  std::uint64_t new_view;
  std::size_t replica;
  // Prepared-but-not-executed batches carried into the new view.
  std::vector<PrePrepare> prepared;
};
struct NewView {
  std::uint64_t view;
  std::vector<PrePrepare> reproposals;
};
// State transfer (checkpoint sync, simplified): a replica that detects an
// execution gap — it missed committed sequences while crashed or cut off —
// asks its peers for the executed batches and applies any batch vouched for
// by f+1 matching replies.
struct SyncRequest {
  std::uint64_t from_seq;  // first missing sequence
  std::size_t replica;
};
struct SyncEntry {
  std::uint64_t seq;
  std::vector<Command> batch;
};
struct SyncReply {
  std::size_t replica;
  std::vector<SyncEntry> entries;
};
}  // namespace pbft_msg

class PbftReplica final : public net::Host {
 public:
  PbftReplica(net::Network& net, net::NodeId addr, std::size_t index,
              PbftConfig config);
  ~PbftReplica() override;

  PbftReplica(const PbftReplica&) = delete;
  PbftReplica& operator=(const PbftReplica&) = delete;

  /// Wire the replica group together; call once on every replica with the
  /// same ordered address list (index i must match addresses[i]). Throws
  /// std::invalid_argument past ReplicaSet::kMaxReplicas replicas.
  void set_group(std::vector<net::NodeId> replicas);

  std::size_t index() const { return index_; }
  net::NodeId addr() const { return addr_; }
  std::uint64_t view() const { return view_; }
  bool is_primary() const { return view_ % group_.size() == index_; }
  std::uint64_t executed_count() const { return executed_seq_; }

  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }

  /// Crash-stop (for fault-injection tests). A crashed replica ignores all
  /// traffic, sends nothing, and cancels its timers so the event queue
  /// carries no trace of it while down.
  void crash();
  /// Un-crash; re-arms the suspicion timer if work was left unfinished.
  void recover();
  bool crashed() const { return crashed_; }

  void handle_message(const net::Message& msg) override;

 private:
  struct SlotState {
    std::optional<pbft_msg::PrePrepare> pre_prepare;
    ReplicaSet prepares;
    ReplicaSet commits;
    bool prepared = false;
    bool committed = false;
    bool executed = false;
  };

  std::size_t quorum_2f() const { return 2 * config_.f; }
  std::size_t quorum_2f1() const { return 2 * config_.f + 1; }

  void on_request(const Command& cmd);
  void flush_batch();
  void broadcast_to_group(const net::Message&) = delete;
  template <typename M>
  void multicast(const M& m, std::size_t bytes);
  // `s` is slot(view_, seq), looked up once by the caller.
  void try_prepare(std::uint64_t seq, SlotState& s);
  void try_commit(std::uint64_t seq, SlotState& s);
  void execute_ready();
  bool has_pending_work() const;
  void arm_view_timer();
  void start_view_change();
  void maybe_resync(net::NodeId peer, std::uint64_t their_view);
  void request_sync();
  bool locally_prepared(std::uint64_t seq,
                        const crypto::Hash256& digest) const;
  void apply_synced(std::uint64_t seq, const std::vector<Command>& batch);
  void enter_new_view(std::uint64_t view,
                      const std::vector<pbft_msg::PrePrepare>& reproposals);
  SlotState& slot(std::uint64_t view, std::uint64_t seq);

  net::Network& net_;
  sim::Simulator& sim_;
  net::NodeId addr_;
  std::size_t index_;
  PbftConfig config_;
  // Experiment-scoped metric handles (aggregated across all replicas).
  sim::Counter& m_batches_executed_;
  sim::Counter& m_commands_executed_;
  sim::Counter& m_view_changes_;
  std::vector<net::NodeId> group_;
  bool crashed_ = false;

  std::uint64_t view_ = 0;
  std::uint64_t next_seq_ = 1;      // primary's sequence counter
  std::uint64_t executed_seq_ = 0;  // highest contiguously executed seq
  // Highest seq whose slot holds a pre-prepare. Pre-prepares are never
  // cleared, slots never erased, and a slot is marked executed only when
  // executed_seq_ (which advances by one) reaches its seq, so some slot is
  // pre-prepared but unexecuted exactly when this exceeds executed_seq_.
  std::uint64_t max_pre_prepared_seq_ = 0;
  // Keyed by (view, seq). Hashed: every PrePrepare/Prepare/Commit looks its
  // slot up. Node-based, so SlotState references survive later inserts.
  // Iteration order is unspecified; start_view_change sorts what it sends.
  struct SlotKeyHash {
    std::size_t operator()(
        const std::pair<std::uint64_t, std::uint64_t>& k) const {
      return static_cast<std::size_t>(k.second ^
                                      (k.first * 0x9E3779B97F4A7C15ull));
    }
  };
  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, SlotState,
                     SlotKeyHash>
      slots_;
  std::map<std::uint64_t, std::vector<Command>> executed_batches_;

  std::deque<Command> pending_;  // primary-side batching queue
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen_pending_;
  std::map<std::uint64_t, std::uint64_t> committed_ready_;  // seq -> view
  sim::EventHandle batch_timer_;

  // Client bookkeeping: who asked for what (to send replies).
  std::unordered_map<std::uint64_t, net::NodeId> client_addrs_;
  // Requests we forwarded to a (possibly faulty) primary, re-driven to the
  // new primary after a view change. Keyed by (client, id).
  std::map<std::pair<std::uint64_t, std::uint64_t>, Command> forwarded_;
  // Dedup of executed client commands.
  std::set<std::pair<std::uint64_t, std::uint64_t>> executed_cmds_;

  // View change state.
  sim::EventHandle view_timer_;
  std::uint64_t pending_view_ = 0;
  std::map<std::uint64_t, ReplicaSet> view_change_votes_;
  std::map<std::uint64_t, std::vector<pbft_msg::PrePrepare>> view_change_preps_;
  // The latest NewView this replica installed, kept so peers still talking
  // in an older view (a healed ex-primary after a partition) can be brought
  // forward; resync_sent_ dedups the re-send per peer per view.
  std::optional<pbft_msg::NewView> last_new_view_;
  std::unordered_map<std::uint64_t, std::uint64_t> resync_sent_;

  // State-transfer state: per missing sequence, the candidate batches peers
  // vouched for (a batch executes once f+1 distinct replicas sent the same
  // digest). The request is rate-limited: at most one per gap position per
  // view-change-timeout, so commit storms don't multiply it.
  struct SyncCandidate {
    crypto::Hash256 digest;
    std::vector<Command> batch;
    ReplicaSet votes;
  };
  std::map<std::uint64_t, std::vector<SyncCandidate>> sync_state_;
  std::uint64_t sync_requested_for_ = 0;
  sim::SimTime sync_requested_at_ = 0;

  CommitHook commit_hook_;
};

/// PBFT client: multicasts requests, accepts f+1 matching replies, retries
/// through timeouts (which triggers view changes on a faulty primary).
class PbftClient final : public net::Host {
 public:
  using DoneHook = std::function<void(const Command&, sim::SimDuration)>;

  PbftClient(net::Network& net, net::NodeId addr, std::uint64_t client_id,
             PbftConfig config);
  ~PbftClient() override;

  /// Throws std::invalid_argument past ReplicaSet::kMaxReplicas replicas.
  void set_group(std::vector<net::NodeId> replicas);
  void set_done_hook(DoneHook hook) { done_ = std::move(hook); }

  net::NodeId addr() const { return addr_; }
  std::uint64_t completed() const { return completed_; }

  /// Submit an operation; the done hook fires when f+1 replies match.
  void submit(std::string op, std::size_t wire_bytes = 64);

  void handle_message(const net::Message& msg) override;

 private:
  struct Outstanding {
    Command cmd;
    sim::SimTime started = 0;
    ReplicaSet replies;
    sim::EventHandle retry;
  };

  void send_request(const Command& cmd, bool to_all);

  net::Network& net_;
  sim::Simulator& sim_;
  net::NodeId addr_;
  std::uint64_t client_id_;
  PbftConfig config_;
  std::vector<net::NodeId> group_;
  std::uint64_t next_cmd_ = 1;
  std::uint64_t completed_ = 0;
  std::unordered_map<std::uint64_t, Outstanding> outstanding_;
  DoneHook done_;
};

}  // namespace decentnet::bft
