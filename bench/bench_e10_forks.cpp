// E10 — Fork/stale rate vs block interval (§III-A).
// "The difficulty target is periodically adjusted in such a way that a new
// block is generated every 10 minutes ... such ephemeral forks quickly
// disappear" — the 10-minute interval buys fork-safety from propagation
// delay; shrinking it (to chase throughput) buys forks instead.
#include "bench_util.hpp"
#include "core/scenarios.hpp"

using namespace decentnet;

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E10_forks", argc, argv, {.seed = 42});
  ex.describe(
      "E10: stale/fork rate vs block interval and propagation delay",
      "ephemeral forks appear when blocks are found faster than they "
      "propagate; Bitcoin's 10-minute interval keeps the stale rate ~1%, "
      "cutting the interval (or growing latency) forks the chain",
      "PoW mesh of 30 nodes; sweep target block interval at two median "
      "one-way latencies; stale rate = stale blocks / all blocks");

  for (const auto latency_ms : {80, 400}) {
    for (const double interval_s : {2.0, 10.0, 60.0, 600.0}) {
      core::PowScenarioConfig cfg;
      cfg.params.retarget_window = 0;
      cfg.params.initial_difficulty = 1e6;
      cfg.params.target_block_interval = sim::seconds(interval_s);
      cfg.total_hashrate = 1e6 / interval_s;
      cfg.nodes = 24;
      cfg.degree = 5;
      cfg.miners = 8;
      cfg.wallets = 4;
      cfg.tx_rate_per_sec = 0;  // isolate the fork dynamics
      cfg.common.latency = sim::millis(latency_ms);
      // Enough blocks per row for a stable estimate.
      cfg.common.duration = sim::seconds(interval_s * 150);
      cfg.common.track_spans = true;  // block relay-tree depth histogram
      const auto r = core::run_pow_scenario(cfg, ex);
      ex.add_row({{"latency_ms", std::int64_t{latency_ms}},
                  {"block_interval_s", bench::Value(interval_s, 0)},
                  {"blocks", r.blocks_on_chain},
                  {"stale_blocks", r.stale_blocks},
                  {"stale_rate", bench::Value(r.stale_rate, 4)},
                  {"mean_reorg_depth",
                   bench::Value(r.mean_reorg_depth, 2)}});
    }
  }
  const int rc = ex.finish();
  ex.print(
      "\nAt 600 s the stale rate is negligible at either latency; at 2-5 s\n"
      "intervals the chain wastes a sizable fraction of its work on forks —\n"
      "and doubling latency roughly doubles the damage. This is why 'just\n"
      "make blocks faster' does not fix E5's throughput ceiling.\n");
  return rc;
}
