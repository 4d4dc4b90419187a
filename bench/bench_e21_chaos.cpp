// E21 — Deterministic chaos sweep across all protocol families (robustness).
// Where E19 scripts one hand-written fault per family, E21 samples whole
// fault plans from a declarative ChaosSpace — partitions composed with
// crashes, loss bursts, duplication, reordering and latency spikes — and
// judges every run with the safety invariants plus liveness oracles: Raft
// re-elects and recommits, PBFT resumes executing, Kademlia lookups succeed
// again (under churn), gossip coverage converges, chain tips re-converge.
// Every (protocol, seed) verdict is deterministic; a failing seed is shrunk
// to a minimal repro plan and written as a ChaosRepro JSON file that
// `--repro FILE` replays byte-identically.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/world.hpp"
#include "net/churn.hpp"
#include "overlay/gossip.hpp"
#include "overlay/kademlia.hpp"
#include "sim/chaos.hpp"

using namespace decentnet;

namespace {

// One chaos run: a fresh world's env (seeded with the chaos seed), its
// size, the sampled plan, and the times the liveness oracles judge against.
struct ChaosRun {
  core::ScenarioEnv env;
  std::size_t nodes;
  const net::FaultPlan& plan;
  sim::SimTime quiesce;   // the last fault has healed
  sim::SimTime deadline;  // quiesce + the protocol's recovery bound
};

// Run past the deadline, take a last sample, and record the first violation
// (safety or liveness) as the outcome.
sim::ChaosOutcome finish(core::World& w,
                         const std::optional<sim::SimTime>& recovered,
                         const ChaosRun& run) {
  w.simu.run_until(run.deadline + sim::seconds(10));
  sim::InvariantChecker& checker = w.checker();
  checker.check_now();
  checker.stop();
  sim::ChaosOutcome out;
  if (!checker.ok()) {
    const sim::InvariantViolation& v = checker.violations().front();
    out.ok = false;
    out.violation = v.invariant + ": " + v.detail + " (t=" +
                    std::to_string(v.at) + "us, event " +
                    std::to_string(v.events_processed) + ")";
  }
  if (recovered) {
    out.recovery_s.push_back(sim::to_seconds(*recovered - run.quiesce));
  }
  return out;
}

// --- Raft: 5 nodes, periodic leader-driven proposals. Safety: single
// leader per term + commit-log agreement. Liveness: a post-quiesce command
// commits on a majority within the bound.
sim::ChaosOutcome run_raft(const ChaosRun& run) {
  core::RaftWorld w(run.env, run.nodes);
  const auto majority_recommitted = [&] {
    return w.progressed() > w.nodes.size() / 2;
  };
  w.simu.schedule_at(run.quiesce, [&] {
    w.checker().add("raft-leader-liveness",
                    sim::invariants::leader_elected_by(
                        w.simu, core::raw(w.nodes), run.deadline));
    w.checker().add("raft-commit-liveness",
                    sim::invariants::eventually(
                        w.simu, "post-quiesce majority commit", run.deadline,
                        majority_recommitted));
  });
  w.check_safety();
  w.start();
  w.start_faults(run.plan);
  w.start_workload(run.quiesce);

  const auto& recovered =
      w.first_time(run.quiesce + sim::millis(100), majority_recommitted);
  return finish(w, recovered, run);
}

// --- PBFT: f=1 (4 replicas) + one client submitting every 2 s. Safety:
// commit agreement. Liveness: 2f+1 replicas execute a post-quiesce request
// within the bound (view changes + state transfer included).
sim::ChaosOutcome run_pbft(const ChaosRun& run) {
  const std::size_t f = (run.nodes - 1) / 3;
  core::PbftWorld w(run.env, f, /*batch_size=*/1);
  const auto quorum_executing = [&] { return w.progressed() >= 2 * f + 1; };
  w.simu.schedule_at(run.quiesce, [&] {
    w.checker().add("pbft-commit-liveness",
                    sim::invariants::eventually(
                        w.simu, "post-quiesce quorum execution", run.deadline,
                        quorum_executing));
  });
  w.check_safety();
  w.start_faults(run.plan);
  w.start_workload(run.quiesce);

  const auto& recovered =
      w.first_time(run.quiesce + sim::millis(100), quorum_executing);
  return finish(w, recovered, run);
}

// --- PoW: 12 nodes / 4 miners on a random graph. Crash = unreachable at
// the network layer. Liveness: tips converge to within 2 blocks after
// quiesce. (No mid-fault safety predicate: forks during a partition are the
// protocol working as designed.)
sim::ChaosOutcome run_pow(const ChaosRun& run) {
  core::PowWorld w(run.env, run.nodes, /*payout_seed=*/0xE21, {0, 3, 6, 9});
  w.simu.schedule_at(run.quiesce, [&] {
    w.checker().add("pow-tip-liveness",
                    sim::invariants::tips_converge_by(
                        w.simu, core::raw(w.nodes), 2, run.deadline));
  });
  w.checker().start(sim::seconds(1));
  w.start_faults(run.plan);

  const auto& recovered = w.first_time(run.quiesce + sim::millis(100), [&] {
    std::uint64_t lo = ~0ull, hi = 0;
    for (const auto& nd : w.nodes) {
      const std::uint64_t h = nd->tree().best_height();
      lo = std::min(lo, h);
      hi = std::max(hi, h);
    }
    return hi - lo <= 2;
  });
  return finish(w, recovered, run);
}

// --- Kademlia: 24 nodes with heavy-tailed churn COMPOSED with the sampled
// fault plan (the FaultScheduler holds a crashed node's churn so churn can
// never revive it early). A crash is a leave, a restart a re-join.
struct KademliaWorld : core::World {
  KademliaWorld(const core::ScenarioEnv& env, std::size_t n)
      : World(env, n, sim::millis(20)) {
    overlay::KademliaConfig cfg;
    cfg.rpc_retries = 1;  // ride out sampled loss bursts (see README)
    for (const net::NodeId addr : addrs) {
      nodes.push_back(std::make_unique<overlay::KademliaNode>(netw, addr, cfg));
    }
    for (const auto& nd : nodes) contacts.push_back({nd->id(), nd->addr()});
    for (std::size_t i = 0; i < nodes.size(); ++i) rejoin(i);

    net::ChurnConfig churn_cfg;
    churn_cfg.session = net::DurationDist::weibull(240, 0.8);
    churn_cfg.downtime = net::DurationDist::exponential_mean(20);
    churn_cfg.initially_online = 1.0;
    churn = std::make_unique<net::ChurnDriver>(
        simu, nodes.size(), churn_cfg, [this](std::size_t i) { rejoin(i); },
        [this](std::size_t i) { nodes[i]->leave(); });
    churn->start();

    fault_targets_.crash = [this](std::size_t i) { nodes[i]->leave(); };
    fault_targets_.restart = [this](std::size_t i) { rejoin(i); };
    fault_targets_.churn = churn.get();
  }

  // Join through the next three nodes in ring order.
  void rejoin(std::size_t i) {
    std::vector<overlay::Contact> bs;
    for (std::size_t d = 1; d <= 3; ++d) {
      bs.push_back(contacts[(i + d) % contacts.size()]);
    }
    nodes[i]->join(bs);
  }

  std::vector<std::unique_ptr<overlay::KademliaNode>> nodes;
  std::vector<overlay::Contact> contacts;
  std::unique_ptr<net::ChurnDriver> churn;
};

// Workload: stored values republished every 20 s, find_value lookups every
// 2 s. Liveness: 3 post-quiesce lookups succeed within the bound.
sim::ChaosOutcome run_kademlia(const ChaosRun& run) {
  KademliaWorld w(run.env, run.nodes);
  w.start_faults(run.plan);

  // Keys stored once the overlay settles and republished every 20 s from the
  // lowest online node (real DHTs republish; churn evicts replicas).
  std::vector<overlay::Key> keys;
  for (std::uint64_t k = 0; k < 8; ++k) {
    keys.push_back(crypto::sha256("chaos-key-" + std::to_string(k)));
  }
  w.simu.schedule_periodic(sim::seconds(2), sim::seconds(20), [&] {
    for (auto& nd : w.nodes) {
      if (!nd->online()) continue;
      for (std::size_t k = 0; k < keys.size(); ++k) {
        nd->store(keys[k], "v" + std::to_string(k));
      }
      break;
    }
  });

  std::uint64_t post_quiesce_hits = 0;
  std::uint64_t issued = 0;
  w.simu.schedule_periodic(sim::seconds(4), sim::seconds(2), [&] {
    const std::size_t who = issued % run.nodes;
    const overlay::Key& key = keys[issued % keys.size()];
    ++issued;
    if (!w.nodes[who]->online()) return;
    const sim::SimTime at = w.simu.now();
    w.nodes[who]->find_value(key, [&, at](overlay::LookupResult res) {
      if (res.found_value && at >= run.quiesce) ++post_quiesce_hits;
    });
  });

  w.simu.schedule_at(run.quiesce, [&] {
    w.checker().add("kademlia-lookup-liveness",
                    sim::invariants::count_reaches(
                        w.simu, "post-quiesce lookup successes",
                        [&] { return post_quiesce_hits; }, 3, run.deadline));
  });
  w.checker().start(sim::millis(500));

  const auto& recovered = w.first_time(
      run.quiesce + sim::millis(100), [&] { return post_quiesce_hits >= 3; });
  return finish(w, recovered, run);
}

// --- Gossip: 24 nodes, Cyclon shuffling. A crash is a leave, a restart a
// re-join through the next four nodes in ring order.
struct GossipWorld : core::World {
  GossipWorld(const core::ScenarioEnv& env, std::size_t n)
      : World(env, n, sim::millis(20)) {
    overlay::GossipConfig cfg;
    cfg.view_size = 8;
    cfg.shuffle_size = 4;
    cfg.shuffle_interval = sim::seconds(5);
    cfg.fanout = 4;
    for (const net::NodeId addr : addrs) {
      nodes.push_back(std::make_unique<overlay::GossipNode>(netw, addr, cfg));
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) rejoin(i);
    fault_targets_.crash = [this](std::size_t i) { nodes[i]->leave(); };
    fault_targets_.restart = [this](std::size_t i) { rejoin(i); };
  }

  void rejoin(std::size_t i) {
    std::vector<net::NodeId> view;
    for (std::size_t d = 1; d <= 4; ++d) {
      view.push_back(addrs[(i + d) % addrs.size()]);
    }
    nodes[i]->join(view);
  }

  std::vector<std::unique_ptr<overlay::GossipNode>> nodes;
};

// Workload: a rumor broadcast every 5 s throughout plus one probe rumor
// right after quiesce. Liveness: the probe rumor reaches every online node
// within the bound.
sim::ChaosOutcome run_gossip(const ChaosRun& run) {
  GossipWorld w(run.env, run.nodes);
  w.start_faults(run.plan);

  std::uint64_t next_rumor = 1;
  w.simu.schedule_periodic(sim::seconds(3), sim::seconds(5), [&] {
    const std::size_t who = next_rumor % run.nodes;
    if (w.nodes[who]->online()) w.nodes[who]->broadcast(next_rumor, 64);
    ++next_rumor;
  });

  // The probe rumor: originated just after quiesce by the lowest online
  // node, watched by the coverage oracle.
  const overlay::RumorId probe_id = 1'000'000;
  w.simu.schedule_at(run.quiesce + sim::seconds(1), [&] {
    for (auto& nd : w.nodes) {
      if (nd->online()) {
        nd->broadcast(probe_id, 64);
        break;
      }
    }
    w.checker().add("gossip-coverage-liveness",
                    sim::invariants::coverage_converges_by(
                        w.simu, core::raw(w.nodes), probe_id, run.deadline));
  });
  w.checker().start(sim::millis(500));

  const auto& recovered = w.first_time(run.quiesce + sim::seconds(2), [&] {
    for (const auto& nd : w.nodes) {
      if (nd->online() && !nd->has_seen(probe_id)) return false;
    }
    return true;
  });
  return finish(w, recovered, run);
}

struct Protocol {
  const char* name;
  std::size_t nodes;  // partition groups and crash indices target these
  sim::SimDuration recovery_bound;  // liveness budget after the last heal
  sim::ChaosOutcome (*run)(const ChaosRun&);
};

constexpr Protocol kProtocols[] = {
    {"pow", 12, sim::seconds(150), run_pow},
    {"raft", 5, sim::seconds(90), run_raft},
    {"pbft", 4, sim::seconds(90), run_pbft},
    {"kademlia", 24, sim::seconds(90), run_kademlia},
    {"gossip", 24, sim::seconds(60), run_gossip},
};

/// The protocol's chaos scenario: every run builds a fresh world from `env`
/// seeded with the run's chaos seed.
sim::ChaosScenario scenario_for(const Protocol& p,
                                const core::ScenarioEnv& env = {}) {
  return [&p, env](const net::FaultPlan& plan, std::uint64_t seed) {
    core::ScenarioEnv seeded = env;
    seeded.seed = seed;
    const sim::SimTime quiesce = sim::plan_quiesce_time(plan);
    return p.run({seeded, p.nodes, plan, quiesce, quiesce + p.recovery_bound});
  };
}

// The sampled space: the CLI space (or defaults) with the population pinned
// to the protocol's world size so partition groups and crash indices target
// real nodes.
sim::ChaosSpace space_for(const sim::ChaosSpace& base, const Protocol& p) {
  sim::ChaosSpace space = base;
  space.nodes = p.nodes;
  if (std::string_view(p.name) == "pbft") {
    // n = 3f+1 = 4: more than one simultaneous crash exceeds f and stalls
    // the protocol for the whole window by design, not by bug.
    space.crashes.hi = std::min<std::uint32_t>(space.crashes.hi, 1);
  }
  return space;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(p * (v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

// Parse the file named by `flag` with `parse`; an unreadable or malformed
// file is a usage error (exit 2) naming the flag, the path and the cause.
template <typename Parse>
auto load(const char* flag, const std::string& path, Parse parse) {
  std::string error = "cannot read file";
  if (std::ifstream in(path); in) {
    std::ostringstream text;
    text << in.rdbuf();
    try {
      return parse(text.str());
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
  std::fprintf(stderr, "%s %s: %s\n", flag, path.c_str(), error.c_str());
  std::exit(2);
}

const Protocol* find_protocol(std::string_view name) {
  for (const Protocol& p : kProtocols) {
    if (name == p.name) return &p;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E21_chaos", argc, argv,
                              {.seed = 21, .chaos_aware = true});
  ex.describe(
      "E21: deterministic chaos sweep across protocol families",
      "randomized-but-seeded composed faults (partitions + crashes + loss + "
      "duplication + reordering + latency spikes, and churn for the DHT) "
      "never break safety, and every family recovers within its liveness "
      "bound once the faults heal",
      "sample N fault plans per protocol from a declarative ChaosSpace; run "
      "each under safety invariants + liveness oracles; shrink any failure "
      "to a minimal JSON repro (replay with --repro FILE)");

  sim::ChaosSpace base;
  if (!ex.chaos_space_path().empty()) {
    base = load("--chaos-space", ex.chaos_space_path(),
                sim::ChaosSpace::from_json);
  }

  // --repro FILE: replay one shrunk failure byte-identically and report
  // whether it still fails. Exit 0 = reproduced, 3 = did not reproduce.
  if (!ex.repro_path().empty()) {
    const sim::ChaosRepro repro =
        load("--repro", ex.repro_path(), sim::ChaosRepro::from_json);
    const Protocol* const protocol = find_protocol(repro.protocol);
    if (protocol == nullptr) {
      std::fprintf(stderr, "--repro %s: unknown protocol '%s'\n",
                   ex.repro_path().c_str(), repro.protocol.c_str());
      return 2;
    }
    // The replay is one run, so it gets the harness trace, profiler and
    // telemetry (sweeps run bare: their shrink replays would interleave).
    // Its metrics stay world-private; the artifact carries the verdict row.
    core::ScenarioEnv env = core::env_of(ex);
    env.metrics = nullptr;
    const sim::ChaosOutcome out =
        scenario_for(*protocol, env)(repro.plan, repro.seed);
    ex.add_row({{"protocol", repro.protocol},
                {"seed", std::uint64_t(repro.seed)},
                {"reproduced", !out.ok},
                {"violation", out.ok ? "-" : out.violation}});
    const int rc = ex.finish();
    if (rc != 0) return rc;
    if (!out.ok) {
      ex.print("\nreproduced: %s\n", out.violation.c_str());
      return 0;
    }
    ex.print("\nNOT reproduced (recorded violation was: %s)\n",
             repro.violation.c_str());
    return 3;
  }

  const std::size_t seeds = ex.chaos_seeds(64);
  ex.set_param("chaos_seeds", std::uint64_t(seeds));
  ex.set_param("horizon_s", sim::Value(sim::to_seconds(base.horizon), 0));

  std::atomic<std::uint64_t> total_violations{0};
  ex.run_points(std::size(kProtocols), [&](sim::PointScope& scope) {
    const Protocol& p = kProtocols[scope.index()];
    const std::string protocol = p.name;
    const sim::ChaosEngine engine(space_for(base, p));
    const sim::ChaosScenario scenario = scenario_for(p);

    std::vector<double> recovery;
    std::uint64_t violations = 0;
    std::uint64_t recovered_runs = 0;
    // Chaos seed stream: a splitmix chain over (root seed, protocol index),
    // independent of --jobs and of the other protocols. The extra splitmix
    // hashes the start out of the shared step-G arithmetic progression —
    // plain `root ^ G*(index+1)` starts would make protocol streams mere
    // shifts of each other (pow and pbft would fuzz overlapping seed lists).
    std::uint64_t stream =
        scope.root_seed() ^ (0x9E3779B97F4A7C15ull * (scope.index() + 1));
    stream = sim::splitmix64(stream);
    for (std::size_t s = 0; s < seeds; ++s) {
      const std::uint64_t chaos_seed = sim::splitmix64(stream);
      const net::FaultPlan plan = engine.sample_plan(chaos_seed);
      const sim::ChaosOutcome out = scenario(plan, chaos_seed);
      if (!out.ok) {
        ++violations;
        const sim::ShrinkResult shrunk =
            engine.shrink(plan, chaos_seed, scenario);
        sim::ChaosRepro repro;
        repro.protocol = protocol;
        repro.seed = chaos_seed;
        repro.violation = shrunk.violation;
        repro.plan = shrunk.plan;
        const std::string path = "REPRO_E21_" + protocol + "_" +
                                 std::to_string(chaos_seed) + ".json";
        std::ofstream outf(path);
        outf << repro.to_json();
        std::fprintf(stderr,
                     "[E21] %s seed %llu VIOLATION: %s\n"
                     "[E21]   shrunk %zu -> %zu clauses (%zu runs); repro: "
                     "%s\n",
                     protocol.c_str(),
                     static_cast<unsigned long long>(chaos_seed),
                     out.violation.c_str(), shrunk.stats.initial_clauses,
                     shrunk.stats.final_clauses, shrunk.stats.runs,
                     path.c_str());
      } else if (!out.recovery_s.empty()) {
        ++recovered_runs;
        recovery.push_back(out.recovery_s.front());
      }
    }
    total_violations.fetch_add(violations, std::memory_order_relaxed);

    double mean = 0;
    for (const double r : recovery) mean += r;
    if (!recovery.empty()) mean /= static_cast<double>(recovery.size());
    scope.add_row({{"protocol", protocol},
                   {"seeds", std::uint64_t(seeds)},
                   {"violations", violations},
                   {"recovered", recovered_runs},
                   {"recovery_mean_s", sim::Value(mean, 2)},
                   {"recovery_p50_s", sim::Value(percentile(recovery, 0.5), 2)},
                   {"recovery_p95_s", sim::Value(percentile(recovery, 0.95), 2)},
                   {"recovery_max_s",
                    sim::Value(recovery.empty()
                                   ? 0
                                   : *std::max_element(recovery.begin(),
                                                       recovery.end()),
                               2)}});
  });

  const int rc = ex.finish();
  if (total_violations.load() > 0) {
    std::fprintf(stderr,
                 "\n[E21] %llu violation(s); shrunk repro files written "
                 "(replay with --repro FILE)\n",
                 static_cast<unsigned long long>(total_violations.load()));
    return 1;
  }
  ex.print(
      "\nComposed random adversity costs liveness windows, never safety:\n"
      "every sampled plan heals and every family recovers within its bound\n"
      "— the DHT even with churn running throughout. Any future violation\n"
      "arrives as a minimal replayable JSON repro, not a flaky red build.\n");
  return rc;
}
