// E19 — Partition/heal recovery across consensus families (robustness).
// The paper's Problems 1-4 are all claims about behaviour *under adversity*;
// this experiment scripts the adversity. A deterministic FaultPlan splits
// the network (plus a message-duplication window and, for Raft, a node
// crash/restart), heals it, and we measure how long each consensus family
// takes to make post-heal progress on every node — with online invariant
// checkers (single leader per term, commit-log agreement, chain-tip
// convergence) confirming that safety held throughout.
#include <cstdint>
#include <optional>
#include <unordered_set>

#include "bench_util.hpp"
#include "core/world.hpp"

using namespace decentnet;

namespace {

struct Cfg {
  const char* protocol;
  double partition_s;
  void (*run)(const Cfg&, sim::PointScope&);
};

/// Run `w` to `end`, stop its checker, and add the point's row. Recovery is
/// heal -> the first poll that saw post-heal progress on every node.
void finish_row(core::World& w, const std::optional<sim::SimTime>& recovered,
                sim::SimTime heal_at, sim::SimTime end, const Cfg& cfg,
                sim::PointScope& scope) {
  w.simu.run_until(end);
  w.checker().stop();
  const double recovery_s =
      recovered ? sim::to_seconds(*recovered - heal_at) : 0;
  scope.add_row(
      {{"protocol", cfg.protocol},
       {"partition_s", bench::Value(cfg.partition_s, 0)},
       {"recovered", recovered.has_value()},
       {"recovery_s", bench::Value(recovery_s, 2)},
       {"violations", std::uint64_t{w.checker().violations().size()}},
       {"part_drops",
        scope.metrics().counter("net/dropped_partition").value()},
       {"dups", scope.metrics().counter("net/duplicated").value()}});
}

// Raft, n = 5: partition {0,1} away from {2,3,4} AND crash node 4, so the
// majority side loses quorum too — nothing commits until heal+restart. The
// recovery clock measures heal -> a post-heal command applied on all five.
void run_raft(const Cfg& cfg, sim::PointScope& scope) {
  core::RaftWorld w(core::env_of(scope), 5);
  const sim::SimTime part_at = sim::seconds(10);
  const sim::SimTime heal_at = part_at + sim::seconds(cfg.partition_s);

  w.check_safety();
  w.start();

  net::FaultPlan plan;
  plan.partition(part_at, "raft-split",
                 {{w.addrs[0].value, w.addrs[1].value}}, heal_at)
      .duplicate_window(part_at, 0.05, heal_at)
      .crash(part_at, 4)
      .restart(heal_at, 4);
  w.start_faults(std::move(plan));
  w.start_workload(heal_at);

  const auto& recovered = w.first_time(heal_at + sim::millis(100), [&] {
    return w.progressed() == w.nodes.size();
  });
  finish_row(w, recovered, heal_at, heal_at + sim::minutes(2), cfg, scope);
}

// PBFT, f = 1 (n = 4): isolate the view-0 primary. The backups view-change
// and keep executing; the clock measures heal -> a post-heal request executed
// on ALL FOUR replicas, i.e. how fast the stale ex-primary is resynced into
// the current view.
void run_pbft(const Cfg& cfg, sim::PointScope& scope) {
  core::PbftWorld w(core::env_of(scope), /*f=*/1, /*batch_size=*/1);
  w.check_safety();

  const sim::SimTime part_at = sim::seconds(10);
  const sim::SimTime heal_at = part_at + sim::seconds(cfg.partition_s);

  net::FaultPlan plan;
  plan.partition(part_at, "isolate-primary", {{w.addrs[0].value}}, heal_at)
      .duplicate_window(part_at, 0.05, heal_at);
  w.start_faults(std::move(plan));
  w.start_workload(heal_at);

  const auto& recovered = w.first_time(heal_at + sim::millis(100), [&] {
    return w.progressed() == w.replicas.size();
  });
  finish_row(w, recovered, heal_at, heal_at + sim::minutes(2), cfg, scope);
}

// PoW, 16 nodes / 4 miners (two per side): both halves keep mining through
// the split, fork, and must reorg back to one tip after heal. The clock
// measures heal -> every node on the same best tip; a chain-tip-convergence
// invariant armed one minute after heal confirms the fork actually died.
void run_pow(const Cfg& cfg, sim::PointScope& scope) {
  core::PowWorld w(core::env_of(scope), 16, /*payout_seed=*/0xE19,
                   {0, 1, 8, 9});
  const sim::SimTime part_at = sim::minutes(5);
  const sim::SimTime heal_at = part_at + sim::seconds(cfg.partition_s);
  std::unordered_set<std::uint64_t> side_a;
  for (std::size_t i = 0; i < w.addrs.size() / 2; ++i) {
    side_a.insert(w.addrs[i].value);
  }
  net::FaultPlan plan;
  plan.partition(part_at, "pow-split", {side_a}, heal_at)
      .duplicate_window(part_at, 0.05, heal_at);
  w.start_faults(std::move(plan));

  // Arm convergence only after a post-heal grace period — during the split
  // the two sides legitimately diverge.
  w.simu.schedule_at(heal_at + sim::minutes(1), [&] {
    w.checker().add(
        "chain-tips-converge",
        sim::invariants::chain_tips_converge(core::raw(w.nodes), 2));
  });
  w.checker().start(sim::seconds(1));

  const auto& recovered = w.first_time(heal_at + sim::millis(100), [&] {
    for (const auto& nd : w.nodes) {
      if (!(nd->tree().best_tip() == w.nodes[0]->tree().best_tip())) {
        return false;
      }
    }
    return true;
  });
  finish_row(w, recovered, heal_at, heal_at + sim::minutes(3), cfg, scope);
}

}  // namespace

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E19_faults", argc, argv, {.seed = 19});
  ex.describe(
      "E19: partition/heal recovery across consensus families",
      "permissionless and permissioned consensus both survive a scripted "
      "partition, but pay for recovery differently: PoW re-converges by "
      "reorg after the next block, Raft re-elects and back-fills logs, PBFT "
      "view-changes around the cut-off primary and resyncs it on heal — all "
      "with zero safety-invariant violations",
      "deterministic FaultPlan: named partition + 5% duplication window "
      "(Raft also crash/restarts a node); sweep the partition length; "
      "recovery = heal -> post-heal progress visible on every node; online "
      "invariant checkers sample throughout");

  const Cfg rows[] = {
      {"pow", 30, run_pow},   {"pow", 120, run_pow},   {"raft", 30, run_raft},
      {"raft", 120, run_raft}, {"pbft", 30, run_pbft}, {"pbft", 120, run_pbft},
  };
  ex.run_points(std::size(rows), [&](sim::PointScope& scope) {
    const Cfg& r = rows[scope.index()];
    r.run(r, scope);
  });
  const int rc = ex.finish();
  ex.print(
      "\nEvery family heals, but on its own clock: PoW waits for the next\n"
      "block to trigger the reorg, Raft for an election round plus log\n"
      "back-fill, PBFT for the ex-primary to be pulled into the current\n"
      "view. Violations stay at zero — partitions cost liveness here, not\n"
      "safety.\n");
  return rc;
}
