// Protocol worlds: the shared set-up of one simulated deployment — kernel,
// constant-latency network, node ids, invariant checker, fault scheduler and
// telemetry — plus one builder per consensus family (Raft, PBFT, PoW) that
// wires the group on top. A bench that runs a family under adversity keeps
// only what is its own: the workload, the progress predicate, the fault plan
// and the result row.
//
// Event order is part of a world's contract. The kernel breaks ties between
// same-time events by scheduling order, and every node forks the kernel Rng
// when it is constructed, so a world allocates node ids, builds nodes (Rng
// forks) and schedules start-up events in one fixed order. Runners then
// schedule their own events (oracles, checker, fault plan, workload,
// recovery poll) in their bench's historical order, which keeps every
// artifact byte-identical to the hand-built clusters these replaced.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "bft/pbft.hpp"
#include "bft/raft.hpp"
#include "chain/miner.hpp"
#include "chain/node.hpp"
#include "core/scenarios.hpp"
#include "net/faults.hpp"
#include "net/network.hpp"
#include "sim/invariants.hpp"
#include "sim/simulator.hpp"

namespace decentnet::sim {
class Profiler;
class Telemetry;
class TraceSink;
}  // namespace decentnet::sim

namespace decentnet::core {

/// Where a run gets its seed, metric registry, trace sink, profiler and
/// telemetry from. Null members are off; a null registry leaves the network
/// (and everything registered through it) with a private one.
struct ScenarioEnv {
  std::uint64_t seed = 0;
  sim::MetricRegistry* metrics = nullptr;
  sim::TraceSink* trace = nullptr;
  sim::Profiler* profiler = nullptr;
  sim::Telemetry* telemetry = nullptr;
};

/// Standalone: the config's seed, nothing else attached.
ScenarioEnv env_of(const ScenarioCommon& common);
/// The harness's seed, registry, trace, profiler and telemetry.
ScenarioEnv env_of(sim::ExperimentHarness& harness);
/// A sweep point's root seed, private registry, trace, profiler, telemetry.
ScenarioEnv env_of(sim::PointScope& scope);

/// Raw pointers to a family's nodes, the shape the sim::invariants
/// predicate builders take.
template <typename Node>
std::vector<Node*> raw(const std::vector<std::unique_ptr<Node>>& nodes) {
  std::vector<Node*> out;
  for (const auto& nd : nodes) out.push_back(nd.get());
  return out;
}

/// The shared base: a kernel seeded from the env with its trace, profiler
/// and telemetry installed, a constant-latency network over `nodes` ids
/// (allocated first, in order; its peer table is sized for `spare_ids` more,
/// such as a client the builder adds later),
/// and — on first use — the invariant checker and fault scheduler. Under
/// telemetry it registers the network series, and the fault series once
/// faults start.
class World {
 public:
  World(const ScenarioEnv& env, std::size_t nodes, sim::SimDuration latency,
        std::size_t spare_ids = 0);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  sim::Simulator simu;
  net::Network netw;
  std::vector<net::NodeId> addrs;

  /// The run's checker, created on first use so a world that never checks
  /// registers no sim/invariant_* metrics. Shares the network's registry.
  sim::InvariantChecker& checker();

  /// Build and start the fault scheduler over `plan`, crashing and
  /// restarting nodes by the family's semantics. Call at most once.
  void start_faults(net::FaultPlan plan);

  /// Poll `holds` every 100 ms from `from` on; the returned slot gets the
  /// first poll time at which it held (and stays empty if it never did).
  /// Each call has its own slot, valid for the world's lifetime.
  const std::optional<sim::SimTime>& first_time(sim::SimTime from,
                                                std::function<bool()> holds);

 protected:
  /// The family's crash/restart semantics (and churn driver, if any) for
  /// start_faults; `nodes` is preset to addrs. Builders fill the rest.
  net::FaultTargets fault_targets_;

 private:
  sim::Telemetry* telemetry_;
  std::unique_ptr<sim::InvariantChecker> checker_;
  std::unique_ptr<net::FaultScheduler> faults_;
  std::deque<std::optional<sim::SimTime>> first_times_;  // stable slots
};

/// A Raft group of `n` nodes on a 5 ms LAN. Every commit is recorded into
/// `commits` and then handed to `on_commit`; crash/restart are Raft's own
/// (log retained).
class RaftWorld : public World {
 public:
  RaftWorld(const ScenarioEnv& env, std::size_t n);

  std::vector<std::unique_ptr<bft::RaftNode>> nodes;
  sim::CommitLogInvariant commits{"raft-commit-agreement"};
  std::function<void(std::size_t node, const bft::Command&)> on_commit;

  /// Report commit-log conflicts as they happen, register single leader
  /// per term, and sample every 200 ms.
  void check_safety();
  /// Start every node's follower timer.
  void start();
  /// The first node that currently leads, or nullptr.
  bft::RaftNode* leader();

  /// The fault-run workload: every 500 ms the current leader, if any, gets
  /// a fresh command. Progress counts commands proposed at or after `since`.
  void start_workload(sim::SimTime since);
  /// Nodes that have committed a command proposed at or after `since`.
  std::size_t progressed() const;

 private:
  sim::SimTime since_ = 0;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, sim::SimTime> proposed_at_;
  std::vector<std::uint64_t> progress_;  // per node
};

/// A PBFT group of n = 3f+1 replicas plus one client (id 1) on a 5 ms LAN.
/// Each replica's first command executed at a sequence number is recorded
/// into `commits` (the command itself when batch_size is 1). Crash stops a
/// replica; restart recovers it.
class PbftWorld : public World {
 public:
  PbftWorld(const ScenarioEnv& env, std::size_t f, std::size_t batch_size);

  std::vector<std::unique_ptr<bft::PbftReplica>> replicas;
  std::unique_ptr<bft::PbftClient> client;  // attached after the replicas
  sim::CommitLogInvariant commits{"pbft-commit-agreement"};

  /// Report commit-agreement conflicts as they happen and sample every
  /// 200 ms.
  void check_safety();

  /// The fault-run workload: the client submits a command every 2 s from
  /// t = 1 s. Progress counts commands submitted at or after `since`.
  void start_workload(sim::SimTime since);
  /// Replicas that have executed a command submitted at or after `since`.
  std::size_t progressed() const;

 private:
  std::vector<std::uint64_t> last_seq_;  // per replica, for `commits`
  sim::SimTime since_ = 0;
  std::vector<sim::SimTime> submitted_at_;  // index = command id - 1
  std::vector<std::uint64_t> progress_;     // per replica
};

/// A PoW chain of `n` full nodes on a random degree-4 mesh with 50 ms links:
/// 15 s blocks at fixed difficulty, a genesis paid to the wallet seeded
/// `payout_seed`, and equal-rate miners on `miner_nodes` (started at once).
/// Crash makes a node unreachable; restart makes it reachable again.
class PowWorld : public World {
 public:
  PowWorld(const ScenarioEnv& env, std::size_t n, std::uint64_t payout_seed,
           std::initializer_list<std::size_t> miner_nodes);

  std::vector<std::unique_ptr<chain::FullNode>> nodes;
  std::vector<std::unique_ptr<chain::Miner>> miners;
};

}  // namespace decentnet::core
