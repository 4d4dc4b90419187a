// Core analysis toolkit: trilemma evaluator properties, smoke runs of the
// three scenario drivers (small configurations; benches run the full sizes)
// and the protocol-world contracts.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "core/scenarios.hpp"
#include "core/trilemma.hpp"
#include "core/world.hpp"
#include "sim/telemetry.hpp"

namespace dc = decentnet::core;
namespace dn = decentnet::net;
namespace ds = decentnet::sim;

TEST(Trilemma, FullBroadcastMaximizesSecurityAndMinimizesThroughput) {
  dc::TrilemmaDesign d;
  d.shards = 1;
  d.node_capacity_tps = 15;
  const auto p = dc::evaluate_trilemma(d);
  EXPECT_DOUBLE_EQ(p.throughput_tps, 15);
  EXPECT_DOUBLE_EQ(p.scalability, 1);
  EXPECT_DOUBLE_EQ(p.security, 0.5);
  EXPECT_DOUBLE_EQ(p.per_node_load, 1.0);
}

TEST(Trilemma, ShardingTradesSecurityForThroughput) {
  const auto sweep = dc::trilemma_sweep(1000, 10, {1, 2, 4, 8, 16, 64});
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_GT(sweep[i].throughput_tps, sweep[i - 1].throughput_tps);
    EXPECT_LT(sweep[i].security, sweep[i - 1].security);
  }
  // The product of scalability and security is invariant: pick two.
  for (const auto& p : sweep) {
    EXPECT_NEAR(p.scalability * p.security, 0.5, 1e-9);
  }
}

TEST(Scenarios, PowSmokeRun) {
  dc::PowScenarioConfig cfg;
  cfg.nodes = 12;
  cfg.miners = 4;
  cfg.wallets = 8;
  cfg.tx_rate_per_sec = 2;
  cfg.common.duration = ds::minutes(40);
  cfg.params.target_block_interval = ds::minutes(2);
  cfg.params.initial_difficulty = 1e6;
  cfg.params.retarget_window = 0;
  cfg.total_hashrate = 1e6 / 120.0;  // ~1 block / 2 min
  const auto r = dc::run_pow_scenario(cfg);
  EXPECT_GT(r.blocks_on_chain, 5u);
  EXPECT_GT(r.confirmed_txs, 100u);
  EXPECT_GT(r.throughput_tps, 0.1);
  EXPECT_LT(r.stale_rate, 0.2);
}

TEST(Scenarios, FabricSmokeRun) {
  dc::FabricScenarioConfig cfg;
  cfg.orgs = 3;
  cfg.required_endorsements = 2;
  cfg.orderer = dc::OrdererKind::Raft;
  cfg.clients = 4;
  cfg.tx_rate_per_sec = 50;
  cfg.common.duration = ds::seconds(30);
  const auto r = dc::run_fabric_scenario(cfg);
  EXPECT_GT(r.committed, 1000u);
  EXPECT_GT(r.throughput_tps, 30);
  EXPECT_GT(r.latency_p50_ms, 0);
  EXPECT_LT(r.latency_p50_ms, 2000);
}

TEST(Scenarios, FabricHotKeysCauseMvccConflicts) {
  dc::FabricScenarioConfig cfg;
  cfg.orgs = 3;
  cfg.required_endorsements = 2;
  cfg.orderer = dc::OrdererKind::Solo;
  cfg.clients = 4;
  cfg.tx_rate_per_sec = 100;
  cfg.common.duration = ds::seconds(20);
  cfg.hot_keys = 2;  // everyone hammers two keys
  const auto r = dc::run_fabric_scenario(cfg);
  EXPECT_GT(r.mvcc_conflicts, 10u);
}

TEST(Scenarios, PartitionedScalesWithPartitions) {
  dc::PartitionedScenarioConfig small;
  small.partitions = 2;
  small.tx_rate_per_sec = 2000;
  small.common.duration = ds::seconds(10);
  const auto r2 = dc::run_partitioned_scenario(small);

  dc::PartitionedScenarioConfig big = small;
  big.partitions = 8;
  big.tx_rate_per_sec = 8000;
  const auto r8 = dc::run_partitioned_scenario(big);

  EXPECT_GT(r2.throughput_tps, 1500);
  EXPECT_GT(r8.throughput_tps, r2.throughput_tps * 3);
  EXPECT_LT(r8.latency_p50_ms, 100);
}

// ---------------------------------------------------------------------------
// Protocol worlds (core/world.hpp)
// ---------------------------------------------------------------------------

TEST(World, BaseAllocatesIdsAndBuildsTheCheckerOnFirstUse) {
  ds::MetricRegistry metrics;
  dc::World w({.seed = 1, .metrics = &metrics}, 3, ds::millis(5));
  ASSERT_EQ(w.addrs.size(), 3u);
  EXPECT_EQ(w.addrs[1].value, w.addrs[0].value + 1);
  EXPECT_EQ(w.addrs[2].value, w.addrs[1].value + 1);
  // A world that never checks registers no sim/invariant_* metrics (E11's
  // artifact depends on it).
  EXPECT_EQ(metrics.counters().count("sim/invariant_checks"), 0u);
  w.checker();
  EXPECT_EQ(metrics.counters().count("sim/invariant_checks"), 1u);
}

TEST(World, FirstTimeKeepsTheFirstPollThatHeld) {
  dc::World w({.seed = 1}, 1, ds::millis(5));
  bool healed = false;
  w.simu.schedule_at(ds::millis(250), [&] { healed = true; });
  const auto& at = w.first_time(ds::millis(100), [&] { return healed; });
  // A second poll on the same world keeps its own slot.
  const auto& none = w.first_time(0, [] { return false; });
  const auto& early = w.first_time(0, [] { return true; });
  w.simu.run_until(ds::seconds(1));
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(*at, ds::millis(300));  // polls at 100, 200, 300 ms
  EXPECT_FALSE(none.has_value());
  ASSERT_TRUE(early.has_value());
  EXPECT_EQ(*early, 0);
}

TEST(World, RaftWorkloadCommitsOnEveryNodeSafely) {
  dc::RaftWorld w({.seed = 7}, 3);
  w.check_safety();
  w.start();
  w.start_workload(ds::seconds(2));
  w.simu.run_until(ds::seconds(10));
  EXPECT_EQ(w.progressed(), 3u);
  EXPECT_GT(w.commits.records(), 0u);
  EXPECT_TRUE(w.checker().ok());
}

TEST(World, PbftBatchesRecordOneFingerprintPerSequence) {
  // batch_size 16: several commands share a sequence number, which must not
  // read as a commit-agreement conflict.
  dc::PbftWorld w({.seed = 3}, /*f=*/1, /*batch_size=*/16);
  w.check_safety();
  for (int i = 0; i < 64; ++i) {
    w.simu.schedule_at(ds::millis(10 + i), [&] { w.client->submit("op"); });
  }
  w.simu.run_until(ds::seconds(5));
  EXPECT_EQ(w.client->completed(), 64u);
  EXPECT_GT(w.commits.records(), 0u);
  EXPECT_EQ(w.commits.conflicts(), 0u);
  EXPECT_TRUE(w.checker().ok());
}

TEST(World, FaultsUseTheFamilyCrashSemantics) {
  ds::MetricRegistry metrics;
  dc::RaftWorld raft({.seed = 5, .metrics = &metrics}, 3);
  raft.start();
  dn::FaultPlan plan;
  plan.crash(ds::seconds(1), 1).restart(ds::seconds(3), 1);
  raft.start_faults(plan);
  raft.simu.run_until(ds::seconds(2));
  EXPECT_TRUE(raft.nodes[1]->crashed());
  raft.simu.run_until(ds::seconds(4));
  EXPECT_FALSE(raft.nodes[1]->crashed());
  EXPECT_EQ(metrics.counter("net/fault/crashes").value(), 1u);

  dc::PowWorld pow({.seed = 5}, 6, /*payout_seed=*/0xAB, {0, 3});
  EXPECT_EQ(pow.miners.size(), 2u);
  pow.start_faults(dn::FaultPlan().crash(ds::seconds(1), 2));
  pow.simu.run_until(ds::seconds(2));
  EXPECT_TRUE(pow.netw.unreachable(pow.addrs[2]));
}

TEST(World, TelemetryCarriesNetworkAndFaultSeries) {
  const std::string path = ::testing::TempDir() + "world_series.jsonl";
  {
    ds::SeriesSink sink(path);
    ds::Telemetry tel(sink, ds::millis(100));
    dc::PbftWorld w({.seed = 2, .telemetry = &tel}, 1, 1);
    w.start_faults(dn::FaultPlan().loss_burst(ds::seconds(1), 0.1,
                                              ds::seconds(2)));
    w.start_workload(0);
    w.simu.run_until(ds::seconds(3));
  }
  std::ifstream in(path);
  const std::string series((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_NE(series.find("\"series\":\"kernel/backlog\""), std::string::npos);
  EXPECT_NE(series.find("\"series\":\"net/messages_sent\""),
            std::string::npos);
  EXPECT_NE(series.find("\"series\":\"faults/injected\""), std::string::npos);
}
