#include "core/world.hpp"

#include <algorithm>

#include "chain/wallet.hpp"
#include "net/topology.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"

namespace decentnet::core {

ScenarioEnv env_of(const ScenarioCommon& common) { return {common.seed}; }

ScenarioEnv env_of(sim::ExperimentHarness& harness) {
  return {harness.seed(), &harness.metrics(), harness.trace(),
          harness.profiler(), harness.telemetry()};
}

ScenarioEnv env_of(sim::PointScope& scope) {
  return {scope.root_seed(), &scope.metrics(), scope.trace(),
          scope.profiler(), scope.telemetry()};
}

// ---------------------------------------------------------------------------
// Shared base
// ---------------------------------------------------------------------------

World::World(const ScenarioEnv& env, std::size_t nodes,
             sim::SimDuration latency, std::size_t spare_ids)
    : simu(env.seed),
      netw(simu, std::make_unique<net::ConstantLatency>(latency),
           net::NetworkConfig{.transport = {},
                              .expected_nodes = nodes + spare_ids},
           env.metrics),
      telemetry_(env.telemetry) {
  simu.set_trace(env.trace);
  simu.set_profiler(env.profiler);
  if (telemetry_ != nullptr) {
    telemetry_->attach(simu);
    netw.register_telemetry(*telemetry_);
  }
  for (std::size_t i = 0; i < nodes; ++i) addrs.push_back(netw.new_node_id());
  fault_targets_.nodes = addrs;
}

sim::InvariantChecker& World::checker() {
  if (!checker_) {
    checker_ = std::make_unique<sim::InvariantChecker>(simu, &netw.metrics());
  }
  return *checker_;
}

void World::start_faults(net::FaultPlan plan) {
  faults_ = std::make_unique<net::FaultScheduler>(netw, std::move(plan),
                                                  fault_targets_);
  faults_->start();
  if (telemetry_ != nullptr) faults_->register_telemetry(*telemetry_);
}

const std::optional<sim::SimTime>& World::first_time(
    sim::SimTime from, std::function<bool()> holds) {
  std::optional<sim::SimTime>& slot = first_times_.emplace_back();
  simu.schedule_periodic(from, sim::millis(100),
                         [this, &slot, holds = std::move(holds)] {
                           if (!slot && holds()) slot = simu.now();
                         });
  return slot;
}

// ---------------------------------------------------------------------------
// Raft
// ---------------------------------------------------------------------------

namespace {
constexpr sim::SimDuration kSafetyPeriod = sim::millis(200);

std::size_t count_nonzero(const std::vector<std::uint64_t>& counts) {
  return static_cast<std::size_t>(std::count_if(
      counts.begin(), counts.end(), [](std::uint64_t c) { return c > 0; }));
}
}  // namespace

RaftWorld::RaftWorld(const ScenarioEnv& env, std::size_t n)
    : World(env, n, sim::millis(5)), progress_(n, 0) {
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<bft::RaftNode>(netw, addrs[i], i,
                                                    bft::RaftConfig{}));
    nodes.back()->set_group(addrs);
    nodes.back()->set_commit_hook(
        [this, i](std::uint64_t seq, const bft::Command& cmd) {
          commits.record(i, seq, cmd.id);
          const auto it = proposed_at_.find(cmd.id);
          if (it != proposed_at_.end() && it->second >= since_) {
            ++progress_[i];
          }
          if (on_commit) on_commit(i, cmd);
        });
  }
  fault_targets_.crash = [this](std::size_t i) { nodes[i]->crash(); };
  fault_targets_.restart = [this](std::size_t i) { nodes[i]->restart(); };
}

void RaftWorld::check_safety() {
  commits.bind(&checker());
  checker().add("raft-single-leader",
                sim::invariants::single_leader_per_term(raw(nodes)));
  checker().start(kSafetyPeriod);
}

void RaftWorld::start() {
  for (auto& nd : nodes) nd->start();
}

bft::RaftNode* RaftWorld::leader() {
  for (auto& nd : nodes) {
    if (nd->is_leader()) return nd.get();
  }
  return nullptr;
}

void RaftWorld::start_workload(sim::SimTime since) {
  since_ = since;
  simu.schedule_periodic(sim::millis(500), sim::millis(500), [this] {
    bft::RaftNode* const lead = leader();
    if (lead == nullptr) return;
    bft::Command c;
    c.id = next_id_;
    c.client = 1;
    c.op = "w";
    if (lead->propose(c)) proposed_at_[next_id_++] = simu.now();
  });
}

std::size_t RaftWorld::progressed() const { return count_nonzero(progress_); }

// ---------------------------------------------------------------------------
// PBFT
// ---------------------------------------------------------------------------

namespace {
bft::PbftConfig pbft_config(std::size_t f, std::size_t batch_size) {
  bft::PbftConfig cfg;
  cfg.f = f;
  cfg.batch_size = batch_size;
  return cfg;
}
}  // namespace

PbftWorld::PbftWorld(const ScenarioEnv& env, std::size_t f,
                     std::size_t batch_size)
    : World(env, 3 * f + 1, sim::millis(5), /*spare_ids=*/1),
      last_seq_(3 * f + 1, 0),
      progress_(3 * f + 1, 0) {
  const bft::PbftConfig cfg = pbft_config(f, batch_size);
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    replicas.push_back(
        std::make_unique<bft::PbftReplica>(netw, addrs[i], i, cfg));
    replicas.back()->set_group(addrs);
    replicas.back()->set_commit_hook(
        [this, i](std::uint64_t seq, const bft::Command& cmd) {
          if (seq != last_seq_[i]) commits.record(i, seq, cmd.id);
          last_seq_[i] = seq;
          if (cmd.id <= submitted_at_.size() &&
              submitted_at_[cmd.id - 1] >= since_) {
            ++progress_[i];
          }
        });
  }
  client = std::make_unique<bft::PbftClient>(netw, netw.new_node_id(), 1, cfg);
  client->set_group(addrs);
  fault_targets_.crash = [this](std::size_t i) { replicas[i]->crash(); };
  fault_targets_.restart = [this](std::size_t i) { replicas[i]->recover(); };
}

void PbftWorld::check_safety() {
  commits.bind(&checker());
  checker().start(kSafetyPeriod);
}

void PbftWorld::start_workload(sim::SimTime since) {
  since_ = since;
  simu.schedule_periodic(sim::seconds(1), sim::seconds(2), [this] {
    submitted_at_.push_back(simu.now());  // the client numbers ids 1, 2, ...
    client->submit("w");
  });
}

std::size_t PbftWorld::progressed() const { return count_nonzero(progress_); }

// ---------------------------------------------------------------------------
// PoW
// ---------------------------------------------------------------------------

namespace {
chain::ChainParams pow_params() {
  chain::ChainParams params;
  params.target_block_interval = sim::seconds(15);
  params.retarget_window = 0;  // fixed difficulty: deterministic block rate
  params.initial_difficulty = 1e6;
  return params;
}
}  // namespace

PowWorld::PowWorld(const ScenarioEnv& env, std::size_t n,
                   std::uint64_t payout_seed,
                   std::initializer_list<std::size_t> miner_nodes)
    : World(env, n, sim::millis(50)) {
  const chain::ChainParams params = pow_params();
  const chain::Wallet payout = chain::Wallet::from_seed(payout_seed);
  const chain::BlockPtr genesis =
      chain::make_genesis(payout.address(), 10000, params.initial_difficulty);
  sim::Rng topo_rng(env.seed ^ 0x70B0);
  const auto adj = net::random_graph(n, 4, topo_rng);
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(
        std::make_unique<chain::FullNode>(netw, addrs[i], params, genesis));
    std::vector<net::NodeId> nbrs;
    for (std::size_t j : adj[i]) nbrs.push_back(addrs[j]);
    nodes.back()->connect(std::move(nbrs));
  }
  const double total_rate =
      params.initial_difficulty / sim::to_seconds(params.target_block_interval);
  for (std::size_t i : miner_nodes) {
    miners.push_back(std::make_unique<chain::Miner>(
        *nodes[i], payout.address(),
        total_rate / static_cast<double>(miner_nodes.size())));
    miners.back()->start();
  }
  fault_targets_.crash = [this](std::size_t i) {
    netw.set_unreachable(addrs[i], true);
  };
  fault_targets_.restart = [this](std::size_t i) {
    netw.set_unreachable(addrs[i], false);
  };
}

}  // namespace decentnet::core
