// Shared include for the experiment benches: every bench runs on the
// sim::ExperimentHarness (banner, results table, BENCH_<id>.json artifact,
// --seed/--json/--trace CLI). See src/sim/experiment.hpp for the canonical
// bench shape.
//
// Also home to the throughput instrumentation the perf-gated benches share
// (WallClock, peak_rss_mb, append_timing_cells) so every bench reports
// wall-clock, events/sec and peak RSS with identical names, units and
// rounding — tools/perf_gate.py keys on exactly these cells — and to
// ScaleNet, the one world setup of the shard-aware scale benches.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "net/latency.hpp"
#include "net/network.hpp"
#include "sim/experiment.hpp"
#include "sim/sharding.hpp"

namespace decentnet::bench {

using decentnet::sim::ExperimentHarness;
using decentnet::sim::Value;

/// Process-wide peak resident set in MB. Monotone for the process lifetime
/// (sweep points run as threads of one process at any --jobs), so the
/// largest point of a --jobs 1 sweep reports the sweep's true high-water
/// mark; with --jobs > 1 concurrent points share the number — use --jobs 1
/// when the RSS cell matters.
inline double peak_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KB
#endif
#else
  return 0.0;
#endif
}

/// Wall-clock stopwatch; construct at point start, read at the end.
struct WallClock {
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }
};

/// Append the standard throughput triplet — wall_s, events_per_sec,
/// peak_rss_mb — to a row under construction. With in_json false (the
/// default) the cells are Value::timing: printed in the results table but
/// excluded from the JSON artifact, so a bench keeps its byte-identical
/// determinism contract while still showing throughput interactively.
/// Perf-gated benches pass in_json true (E20's timings_in_json knob) to
/// persist them for tools/perf_gate.py.
inline void append_timing_cells(
    std::vector<std::pair<std::string, Value>>& row, const WallClock& wall,
    std::uint64_t events, bool in_json = false) {
  const double wall_s = wall.seconds();
  const double eps = static_cast<double>(events) / std::max(wall_s, 1e-9);
  auto cell = [&](double v, int prec) {
    return in_json ? Value(v, prec) : Value::timing(v, prec);
  };
  row.emplace_back("wall_s", cell(wall_s, 2));
  row.emplace_back("events_per_sec", cell(eps, 0));
  row.emplace_back("peak_rss_mb", cell(peak_rss_mb(), 1));
}

/// The network side of one scale point (E16, E20, E22) at any --sim-shards
/// value: a ShardedKernel, the harness trace/profiler/telemetry on it, a
/// Network over shard 0 routed over the kernel, `n` node ids registered up
/// front (the peer table is find-only during parallel windows), and the
/// net/* series. One shard needs no separate path: shard 0 keeps the root
/// seed and run_until() bypasses every barrier, so S == 1 reproduces a plain
/// Simulator(seed) byte for byte. The latency model's floor is the kernel's
/// lookahead window. `Scope` is sim::ExperimentHarness or sim::PointScope.
struct ScaleNet {
  sim::ShardedKernel kernel;
  net::Network netw;
  std::vector<net::NodeId> addrs;

  template <class Scope>
  ScaleNet(std::uint64_t seed, std::size_t shards, std::size_t n,
           std::unique_ptr<net::LatencyModel> latency,
           net::NetworkConfig config, Scope& scope)
      : kernel(seed, shards),
        netw(kernel.shard(0), std::move(latency), config, &scope.metrics()),
        addrs(n) {
    scope.instrument(kernel);
    netw.enable_sharding(kernel);
    if (sim::Telemetry* const tel = scope.telemetry()) {
      netw.register_telemetry(*tel);
    }
    for (std::size_t i = 0; i < n; ++i) addrs[i] = netw.new_node_id();
    for (std::size_t i = 0; i < n; ++i) netw.register_node(addrs[i]);
  }

  bool sharded() const { return kernel.shard_count() > 1; }
  /// Shard that owns node i: its per-shard result buffer index.
  std::size_t shard_of(std::size_t i) const {
    return kernel.shard_of(addrs[i].value);
  }
  /// The kernel shard node i's timers and events must run on.
  sim::Simulator& sim_for(std::size_t i) {
    return netw.simulator_for(addrs[i]);
  }
};

}  // namespace decentnet::bench
