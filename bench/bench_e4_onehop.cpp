// E4 — One-hop overlays vs multi-hop DHTs (§II-B, citing Gupta/Liskov).
// "For networks between 10K and 100K it is possible to have full membership
// routing information and provide one-hop routing. If the overlay is
// relatively stable ... then O(1) routing and full membership is the right
// decision instead of maintaining routing tables and suffering multi-hop
// lookups." (The design cloud key-value stores adopted.)
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "net/network.hpp"
#include "overlay/chord.hpp"
#include "overlay/onehop.hpp"
#include "sim/metrics.hpp"

using namespace decentnet;

namespace {

struct Row {
  double lookup_p50_ms;
  double lookup_hops;
  double success;
  double maint_bytes_per_node_s;
};

Row run_chord(std::size_t n, bool churn, std::uint64_t seed,
              sim::ExperimentHarness& ex) {
  sim::Simulator simu(seed);
  ex.instrument(simu);
  net::Network netw(
      simu, std::make_unique<net::LogNormalLatency>(sim::millis(40), 0.3),
      net::NetworkConfig{.expected_nodes = n}, &ex.metrics());
  overlay::ChordConfig cfg;
  std::vector<std::unique_ptr<overlay::ChordNode>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(
        std::make_unique<overlay::ChordNode>(netw, netw.new_node_id(), cfg));
  }
  nodes[0]->create();
  for (std::size_t i = 1; i < n; ++i) {
    nodes[i]->join(nodes[0]->self());
    if (i % 8 == 0) simu.run_until(simu.now() + sim::seconds(20));
  }
  simu.run_until(simu.now() + sim::minutes(30));  // converge
  sim::Rng churn_rng(seed ^ 0xCC);
  if (churn) {
    // One membership change every 10 s: a random node flaps.
    simu.schedule_periodic(sim::seconds(10), sim::seconds(10), [&] {
      const std::size_t idx = 1 + churn_rng.uniform_int(n - 1);
      if (nodes[idx]->online()) {
        nodes[idx]->leave();
      } else {
        nodes[idx]->join(nodes[0]->self());
      }
    });
  }
  // Measure steady-state maintenance traffic over a window.
  const auto bytes_before = netw.bytes_sent();
  const auto t_before = simu.now();
  simu.run_until(simu.now() + sim::minutes(10));
  const double maint = static_cast<double>(netw.bytes_sent() - bytes_before) /
                       static_cast<double>(n) /
                       sim::to_seconds(simu.now() - t_before);
  sim::Histogram lat, hops;
  sim::Rng rng(seed ^ 0xC4);
  int ok = 0;
  const int kQueries = 100;
  for (int q = 0; q < kQueries; ++q) {
    std::size_t src_idx = rng.uniform_int(n);
    while (!nodes[src_idx]->online()) src_idx = rng.uniform_int(n);
    auto& src = *nodes[src_idx];
    bool done = false;
    src.lookup(rng.next(), [&](overlay::ChordLookupResult r) {
      done = true;
      if (r.ok) {
        ++ok;
        lat.record(sim::to_millis(r.elapsed));
        hops.record(static_cast<double>(r.hops));
      }
    });
    simu.run_until(simu.now() + sim::seconds(30));
    (void)done;
  }
  return Row{lat.percentile(50), hops.mean(),
             static_cast<double>(ok) / kQueries, maint};
}

Row run_onehop(std::size_t n, bool churn, std::uint64_t seed,
               sim::ExperimentHarness& ex) {
  sim::Simulator simu(seed);
  ex.instrument(simu);
  net::Network netw(
      simu, std::make_unique<net::LogNormalLatency>(sim::millis(40), 0.3),
      net::NetworkConfig{.expected_nodes = n}, &ex.metrics());
  overlay::OneHopConfig cfg;
  std::vector<std::unique_ptr<overlay::OneHopNode>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(
        std::make_unique<overlay::OneHopNode>(netw, netw.new_node_id(), cfg));
  }
  nodes[0]->create();
  for (std::size_t i = 1; i < n; ++i) {
    nodes[i]->join(nodes[0]->self());
    if (i % 16 == 0) simu.run_until(simu.now() + sim::seconds(5));
  }
  simu.run_until(simu.now() + sim::minutes(10));
  sim::Rng churn_rng(seed ^ 0xCC);
  if (churn) {
    simu.schedule_periodic(sim::seconds(10), sim::seconds(10), [&] {
      const std::size_t idx = 1 + churn_rng.uniform_int(n - 1);
      if (nodes[idx]->online()) {
        nodes[idx]->leave();  // graceful: departure event gossips
      } else {
        nodes[idx]->join(nodes[0]->self());
      }
    });
  }
  const auto bytes_before = netw.bytes_sent();
  const auto t_before = simu.now();
  simu.run_until(simu.now() + sim::minutes(10));
  const double maint = static_cast<double>(netw.bytes_sent() - bytes_before) /
                       static_cast<double>(n) /
                       sim::to_seconds(simu.now() - t_before);
  sim::Histogram lat, attempts;
  sim::Rng rng(seed ^ 0x14);
  int ok = 0;
  const int kQueries = 100;
  for (int q = 0; q < kQueries; ++q) {
    std::size_t src_idx = rng.uniform_int(n);
    while (!nodes[src_idx]->online()) src_idx = rng.uniform_int(n);
    auto& src = *nodes[src_idx];
    bool done = false;
    src.lookup(rng.next(), [&](overlay::OneHopLookupResult r) {
      done = true;
      if (r.ok) {
        ++ok;
        lat.record(sim::to_millis(r.elapsed));
        attempts.record(static_cast<double>(r.attempts));
      }
    });
    simu.run_until(simu.now() + sim::seconds(30));
    (void)done;
  }
  return Row{lat.percentile(50), attempts.mean(),
             static_cast<double>(ok) / kQueries, maint};
}

}  // namespace

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E4_onehop", argc, argv, {.seed = 31});
  ex.describe(
      "E4: one-hop full membership vs Chord multi-hop routing",
      "for stable populations up to ~100K, keeping the full membership "
      "table costs modest maintenance bandwidth and buys O(1) lookups — "
      "multi-hop DHTs only win when churn makes full membership untenable",
      "same WAN (40 ms median); Chord vs one-hop at 200/500 nodes; "
      "maintenance bytes measured over a quiet 10-minute window, then 100 "
      "lookups");

  for (const std::size_t n : {200u, 500u}) {
    for (const bool churn : {false, true}) {
      const Row c = run_chord(n, churn, ex.seed(), ex);
      ex.add_row({{"overlay", "Chord"},
                  {"nodes", std::uint64_t{n}},
                  {"churn", churn ? "6/min" : "none"},
                  {"p50_lookup_ms", bench::Value(c.lookup_p50_ms, 0)},
                  {"hops_or_attempts", bench::Value(c.lookup_hops, 1)},
                  {"success", bench::Value(c.success, 2)},
                  {"maint_bytes_node_s",
                   bench::Value(c.maint_bytes_per_node_s, 1)}});
      const Row o = run_onehop(n, churn, ex.seed() + 1, ex);
      ex.add_row({{"overlay", "One-hop"},
                  {"nodes", std::uint64_t{n}},
                  {"churn", churn ? "6/min" : "none"},
                  {"p50_lookup_ms", bench::Value(o.lookup_p50_ms, 0)},
                  {"hops_or_attempts", bench::Value(o.lookup_hops, 2)},
                  {"success", bench::Value(o.success, 2)},
                  {"maint_bytes_node_s",
                   bench::Value(o.maint_bytes_per_node_s, 1)}});
    }
  }
  const int rc = ex.finish();
  ex.print(
      "\nOne-hop answers in a single RTT where Chord pays ~log2(n) RTTs; the\n"
      "price is membership gossip that grows with churn x n. For a stable\n"
      "corporate/cloud population that trade is obviously right — which is\n"
      "how Dynamo-style stores ended the DHT's multi-hop era.\n");
  return rc;
}
