// E20: the million-node scale path.
//
// The paper's core argument is quantitative at scale: permissionless overlays
// pay for open membership with lookup latency, redundant dissemination
// traffic, and churn-induced failures, and those costs grow with N. E20
// measures the two overlay primitives everything else rides on — Kademlia
// iterative lookups and push-epidemic gossip — at N ∈ {1k, 10k, 100k, 1M}
// under heavy-tailed churn, and doubles as the memory/throughput regression
// gate for the SoA peer-table + streaming-trace work: the whole sweep must
// fit in a few GB (the 1M point in < 4 GB) and the 100k points must finish
// in minutes, not hours. tools/perf_gate.py compares this bench's 100k
// events_per_sec / peak_rss_mb cells against bench/baselines.json in CI.
//
// Sweep shape: for each N, one Kademlia point (hops, lookup latency, RPC
// timeouts over 2000 lookups while peers churn) and one gossip point
// (dissemination time to 99% of final coverage, duplicate factor, for 10
// rumors while peers churn). Kademlia routing tables are warmed via
// observe() — sorted-id neighbors for near buckets plus random contacts for
// far ones — instead of 100k staggered join lookups, which would dominate
// the wall-clock without changing steady-state lookup behavior.
//
// Knobs (repeatable `--param K=V`):
//   max_n=N            drop sweep points above N (CI smoke uses max_n=1000;
//                      the default keeps the 1M point opt-in —
//                      max_n=1000000 enables it); N < 1000 runs both points
//                      at N nodes, and N < 2 is rejected (exit 2): a gossip
//                      view needs a peer other than its owner
//   lookups=K          Kademlia lookups per point        (default 2000)
//   rumors=K           gossip broadcasts per point       (default 10);
//                      K = 0 for either is rejected (exit 2)
//   timings_in_json=0  demote wall-clock/events-per-sec/peak-RSS cells to
//                      table-only so BENCH_E20_scale.json is byte-identical
//                      across runs and --jobs values (the determinism CI
//                      check); the default 1 records them in the JSON.
//   min_lat_ms=K       latency floor for SHARDED runs only (default 20).
//                      The floor is the kernel's conservative lookahead, so
//                      it decides the parallel window width; 20 ms clamps
//                      ~0.03% of the 80 ms-median lognormal draws.
//
// Every point runs on a sim::ShardedKernel of --sim-shards S through the same
// code: hosts spread over S shards, cross-shard messages through
// deterministic mailboxes. Results depend on S (a different, equally valid
// universe than the single-kernel run: per-shard RNG streams, per-peer churn
// streams) but NEVER on --sim-threads, which is the determinism contract CI
// byte-checks. --sim-shards 1 (the default) is the plain single kernel,
// bit-for-bit.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "crypto/hash.hpp"
#include "net/churn.hpp"
#include "overlay/gossip.hpp"
#include "overlay/kademlia.hpp"
#include "sim/metrics.hpp"

namespace net = decentnet::net;
namespace overlay = decentnet::overlay;
namespace sim = decentnet::sim;
namespace crypto = decentnet::crypto;

namespace bench = decentnet::bench;

namespace {

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * (v.size() - 1));
  return v[idx];
}

/// Session/downtime mix tuned so a meaningful fraction of the population
/// flaps inside the ~40 s measurement window even at N=1k.
net::ChurnConfig scale_churn() {
  net::ChurnConfig churn;
  churn.session = net::DurationDist::weibull(120, 0.6);
  churn.downtime = net::DurationDist::exponential_mean(60);
  churn.initially_online = 1.0;
  return churn;
}

/// What every point shares: population, decomposition and JSON mode.
struct PointConfig {
  std::size_t n;
  std::size_t shards;
  std::size_t threads;
  sim::SimDuration min_lat;  // latency floor when sharded
  bool json_timings;
};

/// LogNormal(80 ms, 0.4) links. The floor is the kernel's lookahead window:
/// min_lat_ms when sharded, the 1 ms default on one shard.
std::unique_ptr<net::LatencyModel> point_latency(const PointConfig& pc) {
  return std::make_unique<net::LogNormalLatency>(
      sim::millis(80), 0.4, pc.shards > 1 ? pc.min_lat : sim::millis(1));
}

using Row = std::vector<std::pair<std::string, sim::Value>>;

/// A row's leading cells; a sharded run adds its shard count.
Row row_head(const char* overlay, const bench::ScaleNet& world) {
  Row row{{"overlay", overlay},
          {"n", static_cast<std::uint64_t>(world.addrs.size())}};
  if (world.sharded()) {
    row.emplace_back("shards",
                     static_cast<std::uint64_t>(world.kernel.shard_count()));
  }
  return row;
}

/// A row's trailing cells; a sharded run adds its window count.
void finish_row(Row& row, const bench::ScaleNet& world,
                const bench::WallClock& wall, bool json_timings,
                sim::PointScope& scope) {
  const auto events = world.kernel.total_events_processed();
  row.emplace_back("msgs", world.netw.messages_sent());
  row.emplace_back("events", events);
  if (world.sharded()) {
    row.emplace_back("windows", world.kernel.windows_run());
  }
  bench::append_timing_cells(row, wall, events, json_timings);
  scope.add_row(std::move(row));
}

void run_kademlia_point(const PointConfig& pc, std::size_t lookups,
                        sim::PointScope& scope) {
  const bench::WallClock wall;
  const std::size_t n = pc.n;
  bench::ScaleNet world(scope.seed(), pc.shards, n, point_latency(pc),
                        net::NetworkConfig{.expected_nodes = n}, scope);
  net::Network& netw = world.netw;
  const std::vector<net::NodeId>& addrs = world.addrs;

  overlay::KademliaConfig kcfg;
  // Bucket refreshes would add an O(N·buckets) lookup storm mid-window;
  // churn already exercises table repair, so push refreshes out of frame.
  kcfg.refresh_interval = sim::hours(6);

  // Result buffers, one per initiator shard (single writer each; merged in
  // shard order after the run). Declared before the nodes: ~KademliaNode
  // fails any still-pending lookup, and that callback writes here.
  std::vector<std::vector<overlay::LookupResult>> results(pc.shards);
  std::vector<std::size_t> skipped(pc.shards, 0);

  std::vector<std::unique_ptr<overlay::KademliaNode>> nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(
        std::make_unique<overlay::KademliaNode>(netw, addrs[i], kcfg));
  }

  // Warm routing tables without N join lookups: every node learns its
  // neighbors in sorted-id order (sorted adjacency = long shared prefixes =
  // the near buckets iterative lookups terminate through) plus a spread of
  // random contacts for the far buckets.
  std::vector<std::size_t> by_id(n);
  for (std::size_t i = 0; i < n; ++i) by_id[i] = i;
  std::sort(by_id.begin(), by_id.end(), [&](std::size_t a, std::size_t b) {
    return nodes[a]->id() < nodes[b]->id();
  });
  sim::Rng rng(scope.seed() ^ 0xE20);
  const std::size_t kNeighbors = 8;   // each side, in sorted-id order
  const std::size_t kRandom = 16;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::size_t i = by_id[pos];
    nodes[i]->join({});
    for (std::size_t d = 1; d <= kNeighbors; ++d) {
      const std::size_t lo = by_id[(pos + n - d) % n];
      const std::size_t hi = by_id[(pos + d) % n];
      nodes[i]->observe({nodes[lo]->id(), addrs[lo]});
      nodes[i]->observe({nodes[hi]->id(), addrs[hi]});
    }
    for (std::size_t r = 0; r < kRandom; ++r) {
      const std::size_t j = rng.uniform_int(n);
      if (j != i) nodes[i]->observe({nodes[j]->id(), addrs[j]});
    }
  }

  // Churn: rejoining peers bootstrap through a surviving sorted-id neighbor
  // (their table persists across the offline gap, as in real clients).
  net::ChurnDriver churn(
      world.kernel.shard(0), n, scale_churn(),
      [&](std::size_t i) {
        if (nodes[i]->online()) return;
        nodes[i]->join(nodes[i]->routing_table().empty()
                           ? std::vector<overlay::Contact>{}
                           : std::vector<overlay::Contact>{
                                 nodes[i]->routing_table().front()});
      },
      [&](std::size_t i) {
        if (nodes[i]->online()) nodes[i]->leave();
      });
  // Sharded, each peer's transitions execute on the shard that owns its
  // node (router mode forks per-peer RNG streams).
  if (world.sharded()) {
    churn.set_shard_router(
        [&](std::size_t i) -> sim::Simulator& { return world.sim_for(i); });
  }
  churn.start();

  // Initiators are pre-drawn in lookup order: a draw at event time from the
  // shared stream would depend on shard order. On one shard the lookups
  // fire in that same order, so the draws are the same either way.
  for (std::size_t q = 0; q < lookups; ++q) {
    const std::size_t who = rng.uniform_int(n);
    const std::size_t sh = world.shard_of(who);
    const auto at = sim::seconds(5) + sim::millis(15) * q;
    world.sim_for(who).post(at, [&, q, who, sh] {
      if (!nodes[who]->online()) {
        ++skipped[sh];
        return;
      }
      const overlay::Key target =
          crypto::sha256("e20-target-" + std::to_string(q));
      nodes[who]->lookup(target, [&results, sh](overlay::LookupResult r) {
        results[sh].push_back(std::move(r));
      });
    });
  }
  const auto horizon =
      sim::seconds(10) + sim::millis(15) * lookups + sim::seconds(5);
  world.kernel.run_until(horizon, pc.threads);
  churn.stop();
  world.kernel.merge_metrics_into(scope.metrics());

  double hops_sum = 0, rpcs_sum = 0;
  std::size_t timeouts = 0, successes = 0, completed_n = 0, skipped_offline = 0;
  std::vector<double> latencies_ms;
  for (std::size_t sh = 0; sh < pc.shards; ++sh) {
    skipped_offline += skipped[sh];
    for (const auto& r : results[sh]) {
      ++completed_n;
      hops_sum += static_cast<double>(r.hops);
      rpcs_sum += static_cast<double>(r.rpcs_sent);
      timeouts += r.timeouts;
      if (!r.closest.empty()) ++successes;
      latencies_ms.push_back(sim::to_millis(r.elapsed));
    }
  }
  const double completed = std::max<double>(1, completed_n);
  Row row = row_head("kademlia", world);
  row.insert(row.end(),
             {
                 {"online_end",
                  static_cast<std::uint64_t>(churn.online_count())},
                 {"lookups", static_cast<std::uint64_t>(completed_n)},
                 {"skipped_offline",
                  static_cast<std::uint64_t>(skipped_offline)},
                 {"success_pct", sim::Value(100.0 * successes / completed, 2)},
                 {"mean_hops", sim::Value(hops_sum / completed, 2)},
                 {"p50_ms", sim::Value(percentile(latencies_ms, 0.50), 1)},
                 {"p99_ms", sim::Value(percentile(latencies_ms, 0.99), 1)},
                 {"mean_rpcs", sim::Value(rpcs_sum / completed, 1)},
                 {"rpc_timeouts", static_cast<std::uint64_t>(timeouts)},
             });
  finish_row(row, world, wall, pc.json_timings, scope);
}

void run_gossip_point(const PointConfig& pc, std::size_t rumors,
                      sim::PointScope& scope) {
  const bench::WallClock wall;
  const std::size_t n = pc.n;
  bench::ScaleNet world(scope.seed(), pc.shards, n, point_latency(pc),
                        net::NetworkConfig{.expected_nodes = n}, scope);
  net::Network& netw = world.netw;
  const std::vector<net::NodeId>& addrs = world.addrs;

  overlay::GossipConfig gcfg;
  gcfg.view_size = 16;
  gcfg.shuffle_size = 8;
  gcfg.shuffle_interval = sim::seconds(30);
  gcfg.fanout = 6;
  gcfg.message_bytes = 256;

  // First-delivery times per rumor, bucketed by the receiving node's shard
  // (single writer each) and merged in shard order for the t99
  // computation. Declared before the nodes so the deliver hooks never
  // outlive their buffer.
  std::vector<std::vector<std::vector<sim::SimTime>>> deliv(
      pc.shards, std::vector<std::vector<sim::SimTime>>(rumors));
  std::vector<std::unique_ptr<overlay::GossipNode>> nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(
        std::make_unique<overlay::GossipNode>(netw, addrs[i], gcfg));
    const std::size_t sh = world.shard_of(i);
    sim::Simulator* nsim = &world.sim_for(i);
    nodes.back()->set_deliver_hook(
        [&deliv, sh, nsim](overlay::RumorId rumor, std::size_t) {
          deliv[sh][rumor].push_back(nsim->now());
        });
  }

  // Half-ring, half-random views: the ring guarantees connectivity, the
  // random links keep the epidemic's diameter logarithmic.
  sim::Rng rng(scope.seed() ^ 0xE20);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<net::NodeId> view;
    view.reserve(gcfg.view_size);
    for (std::size_t d = 1; d <= gcfg.view_size / 2; ++d) {
      view.push_back(addrs[(i + d) % n]);
    }
    while (view.size() < gcfg.view_size) {
      const std::size_t j = rng.uniform_int(n);
      if (j != i) view.push_back(addrs[j]);
    }
    nodes[i]->join(view);
  }

  // Node 0 originates every rumor, so keep it out of the churn population.
  net::ChurnDriver churn(
      world.kernel.shard(0), n - 1, scale_churn(),
      [&](std::size_t i) {
        if (nodes[i + 1]->online()) return;
        std::vector<net::NodeId> view;
        for (std::size_t d = 1; d <= gcfg.view_size / 2; ++d) {
          view.push_back(addrs[(i + 1 + d) % n]);
        }
        nodes[i + 1]->join(view);
      },
      [&](std::size_t i) {
        if (nodes[i + 1]->online()) nodes[i + 1]->leave();
      });
  if (world.sharded()) {
    churn.set_shard_router(
        [&](std::size_t i) -> sim::Simulator& { return world.sim_for(i + 1); });
  }
  churn.start();

  // Node 0 originates every rumor on its own shard; sent_at is written only
  // by that shard's worker.
  sim::Simulator& origin_sim = world.sim_for(0);
  std::vector<sim::SimTime> sent_at(rumors);
  for (std::size_t r = 0; r < rumors; ++r) {
    const auto at = sim::seconds(2) + sim::seconds(3) * r;
    origin_sim.post(at, [&, r] {
      sent_at[r] = origin_sim.now();
      nodes[0]->broadcast(static_cast<overlay::RumorId>(r),
                          gcfg.message_bytes);
    });
  }
  world.kernel.run_until(
      sim::seconds(2) + sim::seconds(3) * rumors + sim::seconds(20),
      pc.threads);
  churn.stop();
  world.kernel.merge_metrics_into(scope.metrics());

  double coverage_sum = 0, t99_sum = 0;
  std::uint64_t delivered = 0;
  for (std::size_t r = 0; r < rumors; ++r) {
    std::vector<sim::SimTime> times;
    for (std::size_t sh = 0; sh < pc.shards; ++sh) {
      times.insert(times.end(), deliv[sh][r].begin(), deliv[sh][r].end());
    }
    delivered += times.size();
    coverage_sum += static_cast<double>(times.size()) / n;
    if (!times.empty()) {
      std::sort(times.begin(), times.end());
      const auto idx = static_cast<std::size_t>(0.99 * (times.size() - 1));
      t99_sum += sim::to_millis(times[idx] - sent_at[r]);
    }
  }
  std::uint64_t duplicates = 0;
  for (const auto& node : nodes) duplicates += node->duplicates_received();

  Row row = row_head("gossip", world);
  row.insert(
      row.end(),
      {
          {"online_end", static_cast<std::uint64_t>(churn.online_count() + 1)},
          {"rumors", static_cast<std::uint64_t>(rumors)},
          {"coverage_pct", sim::Value(100.0 * coverage_sum / rumors, 2)},
          {"t99_ms", sim::Value(t99_sum / rumors, 1)},
          {"dupes_per_delivery",
           sim::Value(static_cast<double>(duplicates) /
                          std::max<std::uint64_t>(1, delivered),
                      2)},
      });
  finish_row(row, world, wall, pc.json_timings, scope);
}

}  // namespace

int main(int argc, char** argv) {
  sim::ExperimentHarness ex("E20_scale", argc, argv, {.seed = 20, .shard_aware = true});
  ex.describe(
      "E20: overlay primitives at 1k/10k/100k/1M nodes under churn",
      "Open-membership overlays pay for decentralization with multi-hop "
      "lookups, redundant dissemination and churn-induced timeouts, and the "
      "costs grow with N (paper SS II-III)",
      "Per N in {1k,10k,100k,1M (opt-in via max_n)}: 2000 Kademlia lookups "
      "and 10 gossip broadcasts while peers churn (Weibull sessions, exp "
      "downtime); reports hops/latency/coverage plus events/sec and peak "
      "RSS");

  const std::uint64_t max_n = ex.cli_param_u64("max_n", 100000);
  if (max_n < 2) {
    std::fprintf(stderr, "--param max_n: must be at least 2: %llu\n",
                 static_cast<unsigned long long>(max_n));
    return 2;
  }
  const std::size_t lookups =
      static_cast<std::size_t>(ex.cli_param_u64("lookups", 2000));
  const std::size_t rumors =
      static_cast<std::size_t>(ex.cli_param_u64("rumors", 10));
  // With no lookups or no rumors a point's success or coverage is 0/0.
  if (lookups == 0 || rumors == 0) {
    std::fprintf(stderr, "--param %s: must be at least 1: 0\n",
                 lookups == 0 ? "lookups" : "rumors");
    return 2;
  }
  const bool json_timings = ex.cli_param_u64("timings_in_json", 1) != 0;
  const std::size_t shards = ex.sim_shards();
  const auto min_lat = sim::millis(
      static_cast<std::int64_t>(ex.cli_param_u64("min_lat_ms", 20)));

  // The 1M point is opt-in (max_n=1000000): it needs ~3 GB and minutes of
  // wall-clock, which would dominate every default run of the sweep.
  std::vector<std::size_t> sizes;
  for (const std::size_t n : {1000u, 10000u, 100000u, 1000000u}) {
    if (n <= max_n) sizes.push_back(n);
  }
  if (sizes.empty()) sizes.push_back(static_cast<std::size_t>(max_n));

  ex.set_param("max_n", max_n);
  ex.set_param("lookups", static_cast<std::uint64_t>(lookups));
  ex.set_param("rumors", static_cast<std::uint64_t>(rumors));
  if (shards > 1) {
    // Results depend on the decomposition, so it is a recorded parameter.
    // --sim-threads deliberately is not: artifacts are byte-identical at
    // any thread count.
    ex.set_param("sim_shards", static_cast<std::uint64_t>(shards));
    ex.set_param("min_lat_ms",
                 static_cast<std::uint64_t>(sim::to_millis(min_lat)));
  }

  ex.run_points(sizes.size() * 2, [&](sim::PointScope& scope) {
    const PointConfig pc{sizes[scope.index() / 2], shards, ex.sim_threads(),
                         min_lat, json_timings};
    if (scope.index() % 2 == 0) {
      run_kademlia_point(pc, lookups, scope);
    } else {
      run_gossip_point(pc, rumors, scope);
    }
  });

  ex.print(
      "\nScale path: one Shared<T> allocation per rumor/request regardless "
      "of fan-out;\nSoA peer arrays + dense node indices + sparse routing "
      "tables keep the 1M point\nunder 4 GB (use --stream-trace for traced "
      "runs at this scale).\n");
  return ex.finish();
}
