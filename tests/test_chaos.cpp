// Chaos engine tests: ChaosSpace JSON parsing and validation, deterministic
// plan sampling, FaultPlan/ChaosRepro byte-stable round-trips (including
// seeds above 2^63), every liveness oracle firing on a seeded negative case,
// and the acceptance fixture — a planted recovery bug detected by an oracle
// and shrunk to a minimal crash clause, deterministically.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/faults.hpp"
#include "net/network.hpp"
#include "sim/chaos.hpp"
#include "sim/invariants.hpp"
#include "sim/jsonlite.hpp"
#include "sim/simulator.hpp"

namespace dn = decentnet::net;
namespace ds = decentnet::sim;

namespace {

// Every fault family in one plan, for round-trip coverage.
dn::FaultPlan full_family_plan() {
  dn::FaultPlan plan;
  plan.partition(ds::seconds(30), "split", {{3, 1, 2}, {4, 5}}, ds::seconds(90))
      .crash(ds::seconds(40), 2)
      .restart(ds::seconds(70), 2)
      .loss_burst(ds::seconds(20), 0.25, ds::seconds(50))
      .duplicate_window(ds::seconds(10), 0.1, ds::seconds(60))
      .reorder_window(ds::seconds(15), ds::millis(40), ds::seconds(55))
      .latency_penalty(ds::seconds(25), 4, ds::millis(150), ds::seconds(65))
      .bandwidth_degrade(ds::seconds(25), 3, 0.5, ds::seconds(65));
  return plan;
}

}  // namespace

// --- ChaosSpace ------------------------------------------------------------

TEST(ChaosSpace, FromJsonOverridesListedKeysAndKeepsDefaults) {
  const ds::ChaosSpace space = ds::ChaosSpace::from_json(R"({
    "nodes": 8,
    "horizon_s": 120,
    "crashes": {"count": [1, 1], "len_s": [5, 10]},
    "loss": {"count": [2, 2], "p": [0.3, 0.3]}
  })");
  EXPECT_EQ(space.nodes, 8u);
  EXPECT_EQ(space.horizon, ds::seconds(120));
  EXPECT_EQ(space.crashes.lo, 1u);
  EXPECT_EQ(space.crashes.hi, 1u);
  EXPECT_DOUBLE_EQ(space.crash_len_s.lo, 5);
  EXPECT_DOUBLE_EQ(space.loss_p.hi, 0.3);
  // Unlisted keys keep their defaults.
  const ds::ChaosSpace defaults;
  EXPECT_DOUBLE_EQ(space.loss_len_s.lo, defaults.loss_len_s.lo);
  EXPECT_EQ(space.partitions.hi, defaults.partitions.hi);
  EXPECT_DOUBLE_EQ(space.duplicate_p.hi, defaults.duplicate_p.hi);
  EXPECT_FALSE(space.validate().has_value());
}

TEST(ChaosSpace, FromJsonErrorsNameTheOffendingKey) {
  try {
    ds::ChaosSpace::from_json(R"({"crashes": {"count": [2]}})");
    FAIL() << "one-element count range must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'count'"), std::string::npos)
        << e.what();
  }
  try {
    ds::ChaosSpace::from_json(R"({"horizon_s": "long"})");
    FAIL() << "non-numeric horizon must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("horizon_s"), std::string::npos)
        << e.what();
  }
}

TEST(ChaosSpace, ValidateCatchesStructuralProblems) {
  ds::ChaosSpace space;
  space.nodes = 1;
  ASSERT_TRUE(space.validate().has_value());
  EXPECT_NE(space.validate()->find("2 nodes"), std::string::npos);
  space.nodes = 8;
  space.loss_p = {0.2, 1.5};
  ASSERT_TRUE(space.validate().has_value());
  EXPECT_NE(space.validate()->find("loss_p"), std::string::npos);
  // The engine refuses an invalid space outright.
  EXPECT_THROW(ds::ChaosEngine{space}, std::invalid_argument);
}

// --- Sampling --------------------------------------------------------------

TEST(ChaosEngine, SamplePlanIsDeterministicValidAndSorted) {
  const ds::ChaosEngine engine{ds::ChaosSpace{}};
  const dn::FaultPlan a = engine.sample_plan(0xC0FFEE);
  const dn::FaultPlan b = engine.sample_plan(0xC0FFEE);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_NE(a.to_json(), engine.sample_plan(0xC0FFEF).to_json());
  EXPECT_FALSE(a.validate(engine.space().nodes).has_value());
  const auto& ev = a.events();
  for (std::size_t i = 1; i < ev.size(); ++i) {
    EXPECT_LE(ev[i - 1].at, ev[i].at);
  }
  // Sampling honours the inject/heal envelope the space promises.
  const ds::SimTime horizon = engine.space().horizon;
  for (const auto& e : a.events()) {
    EXPECT_GE(e.at, horizon / 20);
    if (e.heal_at > 0) {
      EXPECT_LE(e.heal_at, horizon * 8 / 10);
    }
  }
}

TEST(ChaosEngine, QuiesceTimeIsLastInjectOrHeal) {
  const dn::FaultPlan plan = full_family_plan();
  EXPECT_EQ(ds::plan_quiesce_time(plan), ds::seconds(90));
  dn::FaultPlan crash_only;
  crash_only.crash(ds::seconds(5), 0).restart(ds::seconds(25), 0);
  EXPECT_EQ(ds::plan_quiesce_time(crash_only), ds::seconds(25));
}

// --- JSON round-trips ------------------------------------------------------

TEST(FaultPlanJson, RoundTripIsByteStable) {
  const dn::FaultPlan plan = full_family_plan();
  const std::string once = plan.to_json();
  const std::string twice = dn::FaultPlan::from_json(once).to_json();
  EXPECT_EQ(once, twice);
  // Partition members serialize sorted regardless of construction order.
  EXPECT_NE(once.find("[1, 2, 3]"), std::string::npos) << once;
}

TEST(FaultPlanJson, ParseErrorsNameEventIndexAndField) {
  try {
    dn::FaultPlan::from_json(
        R"({"version": 1, "events": [{"kind": "meteor", "at": 0}]})");
    FAIL() << "unknown kind must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("event 0"), std::string::npos) << what;
    EXPECT_NE(what.find("meteor"), std::string::npos) << what;
  }
  try {
    dn::FaultPlan::from_json(R"({"version": 1, "events": [{"kind": "loss"}]})");
    FAIL() << "missing 'at' must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("event 0"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(dn::FaultPlan::from_json("[]"), std::invalid_argument);
}

TEST(ChaosRepro, RoundTripPreservesSeedsAbove2To63) {
  ds::ChaosRepro repro;
  repro.protocol = "raft";
  repro.seed = 13579750587533850672ull;  // > 2^63: must not go through double
  repro.violation = "raft-commit-liveness: stalled";
  repro.plan.loss_burst(ds::seconds(10), 0.3, ds::seconds(20));
  const std::string once = repro.to_json();
  const ds::ChaosRepro back = ds::ChaosRepro::from_json(once);
  EXPECT_EQ(back.seed, 13579750587533850672ull);
  EXPECT_EQ(back.protocol, "raft");
  EXPECT_EQ(back.violation, repro.violation);
  EXPECT_EQ(back.to_json(), once);
}

TEST(ChaosRepro, EscapedStringsRoundTripThroughJsonlite) {
  // FaultPlan and ChaosRepro writers share jsonlite::escape: short escapes
  // for quote, backslash, \n, \r and \t, \u00XX for other control bytes,
  // every other byte verbatim.
  EXPECT_EQ(ds::jsonlite::escape("a\"b\\c\n\r\t\x01\x1f\x7f"),
            "a\\\"b\\\\c\\n\\r\\t\\u0001\\u001f\x7f");
  std::string every;
  for (int c = 1; c < 256; ++c) every += static_cast<char>(c);
  EXPECT_EQ(ds::jsonlite::parse("\"" + ds::jsonlite::escape(every) + "\"").str,
            every);

  ds::ChaosRepro repro;
  repro.protocol = "raft";
  repro.violation = "stalled\n\t\"quoted\" \\ path";
  const std::string once = repro.to_json();
  EXPECT_EQ(ds::ChaosRepro::from_json(once).violation, repro.violation);
  EXPECT_EQ(ds::ChaosRepro::from_json(once).to_json(), once);
}

// --- Liveness oracles: each fires on a seeded negative case ----------------

namespace {

template <typename Oracle>
ds::InvariantViolation expect_fires(Oracle make_oracle) {
  ds::Simulator sim;
  ds::InvariantChecker checker(sim);
  checker.add("oracle", make_oracle(sim));
  checker.start(ds::millis(100));
  sim.run_until(ds::seconds(2));
  checker.stop();
  EXPECT_FALSE(checker.ok());
  return checker.violations().empty() ? ds::InvariantViolation{}
                                      : checker.violations().front();
}

struct StubLeader {
  bool lead = false;
  bool is_leader() const { return lead; }
};
struct StubRsm {
  std::uint64_t execd = 0;
  std::uint64_t executed_count() const { return execd; }
};
struct StubGossip {
  bool on = true;
  bool seen = false;
  bool online() const { return on; }
  bool has_seen(std::uint64_t) const { return seen; }
};
struct StubChain {
  struct Tree {
    std::uint64_t h = 0;
    std::uint64_t best_height() const { return h; }
  } t;
  const Tree& tree() const { return t; }
};

}  // namespace

TEST(LivenessOracles, EachFiresWhenRecoveryNeverHappens) {
  StubLeader l0, l1;  // nobody ever leads
  const auto v1 = expect_fires([&](ds::Simulator& sim) {
    return ds::invariants::leader_elected_by(
        sim, std::vector<StubLeader*>{&l0, &l1}, ds::seconds(1));
  });
  EXPECT_NE(v1.detail.find("leader election"), std::string::npos);

  StubRsm r0, r1;  // stuck at 0 executions
  const auto v2 = expect_fires([&](ds::Simulator& sim) {
    return ds::invariants::commits_resume_by(
        sim, std::vector<StubRsm*>{&r0, &r1}, 5, 2, ds::seconds(1));
  });
  EXPECT_NE(v2.detail.find("commit progress"), std::string::npos);

  StubGossip g0, g1;
  g1.seen = false;  // one online node never hears the rumor
  g0.seen = true;
  const auto v3 = expect_fires([&](ds::Simulator& sim) {
    return ds::invariants::coverage_converges_by(
        sim, std::vector<StubGossip*>{&g0, &g1}, 7, ds::seconds(1));
  });
  EXPECT_NE(v3.detail.find("coverage"), std::string::npos);

  StubChain c0, c1;
  c1.t.h = 10;  // permanent 10-block fork
  const auto v4 = expect_fires([&](ds::Simulator& sim) {
    return ds::invariants::tips_converge_by(
        sim, std::vector<StubChain*>{&c0, &c1}, 2, ds::seconds(1));
  });
  EXPECT_NE(v4.detail.find("tip convergence"), std::string::npos);

  std::uint64_t count = 1;  // never reaches 3
  const auto v5 = expect_fires([&](ds::Simulator& sim) {
    return ds::invariants::count_reaches(
        sim, "lookup successes", [&] { return count; }, 3, ds::seconds(1));
  });
  EXPECT_NE(v5.detail.find("lookup successes"), std::string::npos);
}

TEST(LivenessOracles, SatisfactionLatchesBeforeDeadline) {
  ds::Simulator sim;
  ds::InvariantChecker checker(sim);
  bool up = false;
  checker.add("latch", ds::invariants::eventually(sim, "recovery",
                                                  ds::seconds(1),
                                                  [&] { return up; }));
  checker.start(ds::millis(100));
  // Condition true at 0.5 s, false again afterwards: sticky satisfaction
  // means no violation even when sampled past the deadline.
  sim.schedule_at(ds::millis(450), [&] { up = true; });
  sim.schedule_at(ds::millis(550), [&] { up = false; });
  sim.run_until(ds::seconds(2));
  checker.stop();
  EXPECT_TRUE(checker.ok());
}

// --- The acceptance fixture: planted bug -> detect -> shrink ---------------

namespace {

// A service with a planted recovery bug: the crash hook takes it down but
// the restart hook forgets to bring it back (lost re-registration). Any plan
// containing a crash clause trips the liveness oracle; every other fault
// family is irrelevant noise the shrinker must strip away.
ds::ChaosOutcome amnesiac_scenario(const dn::FaultPlan& plan,
                                   std::uint64_t seed) {
  ds::Simulator sim(seed);
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(5)));
  std::vector<dn::NodeId> addrs;
  for (int i = 0; i < 6; ++i) addrs.push_back(net.new_node_id());

  bool online = true;
  dn::FaultTargets targets;
  targets.nodes = addrs;
  targets.crash = [&](std::size_t) { online = false; };
  targets.restart = [&](std::size_t) { /* planted bug: no re-registration */ };
  dn::FaultScheduler faults(net, plan, std::move(targets));
  faults.start();

  // Arm the oracle at quiesce, as the bench does: `eventually` latches on
  // its first satisfied sample, and the service is healthy before the plan
  // begins.
  const ds::SimTime quiesce = ds::plan_quiesce_time(plan);
  const ds::SimTime deadline = quiesce + ds::seconds(5);
  ds::InvariantChecker checker(sim);
  sim.schedule_at(quiesce, [&] {
    checker.add("service-liveness",
                ds::invariants::eventually(sim, "service back online",
                                           deadline, [&] { return online; }));
  });
  checker.start(ds::millis(200));
  sim.run_until(deadline + ds::seconds(1));
  checker.check_now();
  checker.stop();

  ds::ChaosOutcome out;
  if (!checker.ok()) {
    out.ok = false;
    out.violation = checker.violations().front().invariant + ": " +
                    checker.violations().front().detail;
  }
  return out;
}

}  // namespace

TEST(ChaosShrink, PlantedBugDetectedAndShrunkToCrashClause) {
  ds::ChaosSpace space;
  space.nodes = 6;
  space.crashes = {1, 2};  // guarantee the bug is reachable
  const ds::ChaosEngine engine(space);

  const std::uint64_t seed = 42;
  const dn::FaultPlan plan = engine.sample_plan(seed);
  ASSERT_GE(plan.size(), 3u) << "fixture wants noise clauses to strip:\n"
                             << plan.to_json();

  const ds::ChaosOutcome out = amnesiac_scenario(plan, seed);
  ASSERT_FALSE(out.ok) << "oracle must detect the planted bug";
  EXPECT_NE(out.violation.find("service back online"), std::string::npos);

  const ds::ShrinkResult shrunk =
      engine.shrink(plan, seed, amnesiac_scenario);
  // Minimal repro: the crash+restart pair alone (one ddmin clause).
  EXPECT_LE(shrunk.stats.final_clauses, 2u);
  ASSERT_LE(shrunk.plan.size(), 2u) << shrunk.plan.to_json();
  for (const auto& ev : shrunk.plan.events()) {
    EXPECT_TRUE(ev.kind == dn::FaultEvent::Kind::Crash ||
                ev.kind == dn::FaultEvent::Kind::Restart)
        << dn::fault_kind_name(ev.kind);
  }
  EXPECT_FALSE(shrunk.violation.empty());
  ASSERT_FALSE(amnesiac_scenario(shrunk.plan, seed).ok)
      << "the shrunk plan must still trip the oracle";

  // Shrinking is deterministic: same inputs, byte-identical minimal plan.
  const ds::ShrinkResult again = engine.shrink(plan, seed, amnesiac_scenario);
  EXPECT_EQ(shrunk.plan.to_json(), again.plan.to_json());
  EXPECT_EQ(shrunk.stats.runs, again.stats.runs);
  EXPECT_EQ(shrunk.violation, again.violation);
}

TEST(ChaosShrink, PassingPlanIsRejected) {
  const ds::ChaosEngine engine{ds::ChaosSpace{}};
  dn::FaultPlan benign;  // no crash clause: the amnesiac service stays up
  benign.loss_burst(ds::seconds(10), 0.1, ds::seconds(20));
  EXPECT_THROW(engine.shrink(benign, 1, amnesiac_scenario), std::logic_error);
}
