// E15 — Churn and instability in open overlays (§II-B Problem 2).
// "P2P networks show high heterogeneity and high degrees of churn. To
// maintain the service these protocols must be fault-tolerant and
// self-adjusting, but this can cause performance problems and latency ...
// stable cloud servers have no rival."
#include <iterator>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "net/churn.hpp"
#include "net/network.hpp"
#include "overlay/kademlia.hpp"
#include "sim/metrics.hpp"

using namespace decentnet;

namespace {

struct Row {
  double success;
  double p50_s;
  double p90_s;
  double timeouts_per_lookup;
};

/// Kademlia under live churn: peers alternate sessions/downtime while
/// queries run. `mean_session_min == 0` disables churn (stable servers).
Row run(std::size_t n, double mean_session_min, std::uint64_t seed,
        sim::PointScope& scope) {
  sim::Simulator simu(seed);
  scope.instrument(simu);
  net::NetworkConfig net_cfg;
  net_cfg.expected_nodes = n;
  net::Network netw(
      simu, std::make_unique<net::LogNormalLatency>(sim::millis(60), 0.4),
      net_cfg, &scope.metrics());
  overlay::KademliaConfig cfg;
  std::vector<std::unique_ptr<overlay::KademliaNode>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<overlay::KademliaNode>(
        netw, netw.new_node_id(), cfg));
  }
  nodes[0]->join({});
  for (std::size_t i = 1; i < n; ++i) {
    nodes[i]->join({{nodes[0]->id(), nodes[0]->addr()}});
    if (i % 16 == 0) simu.run_until(simu.now() + sim::seconds(2));
  }
  simu.run_until(simu.now() + sim::minutes(2));

  std::unique_ptr<net::ChurnDriver> churn;
  if (mean_session_min > 0) {
    net::ChurnConfig ccfg;
    ccfg.session = net::DurationDist::weibull(mean_session_min * 60, 0.6);
    ccfg.downtime =
        net::DurationDist::exponential_mean(mean_session_min * 30);
    ccfg.initially_online = 1.0;
    // Node 0 is the stable bootstrap; the rest churn.
    churn = std::make_unique<net::ChurnDriver>(
        simu, n, ccfg,
        [&](std::size_t i) {
          if (i == 0) return;
          if (!nodes[i]->online()) {
            nodes[i]->join({{nodes[0]->id(), nodes[0]->addr()}});
          }
        },
        [&](std::size_t i) {
          if (i == 0) return;
          if (nodes[i]->online()) nodes[i]->leave();
        });
    churn->start();
    simu.run_until(simu.now() + sim::minutes(20));  // reach churn steady state
  }

  sim::Histogram lat;
  sim::Rng rng(seed ^ 0xC0FFEE);
  std::uint64_t timeouts = 0;
  int ok = 0, issued = 0;
  const int kQueries = 120;
  for (int q = 0; q < kQueries; ++q) {
    overlay::KademliaNode* src = nullptr;
    for (int tries = 0; tries < 64 && src == nullptr; ++tries) {
      auto* cand = nodes[rng.uniform_int(n)].get();
      if (cand->online()) src = cand;
    }
    if (src == nullptr) continue;
    ++issued;
    // Look up the id of a currently online node: a "should succeed" query.
    overlay::KademliaNode* target = nullptr;
    for (int tries = 0; tries < 64 && target == nullptr; ++tries) {
      auto* cand = nodes[rng.uniform_int(n)].get();
      if (cand->online() && cand != src) target = cand;
    }
    if (target == nullptr) continue;
    const overlay::Key want = target->id();
    bool done = false;
    src->lookup(want, [&](overlay::LookupResult r) {
      done = true;
      timeouts += r.timeouts;
      // Success: the true owner appears among the k returned contacts.
      for (const auto& c : r.closest) {
        if (c.id == want) {
          ++ok;
          lat.record(sim::to_seconds(r.elapsed));
          break;
        }
      }
    });
    simu.run_until(simu.now() + sim::minutes(2));
    (void)done;
  }
  Row row;
  row.success = issued == 0 ? 0 : static_cast<double>(ok) / issued;
  row.p50_s = lat.percentile(50);
  row.p90_s = lat.percentile(90);
  row.timeouts_per_lookup =
      issued == 0 ? 0 : static_cast<double>(timeouts) / issued;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E15_churn", argc, argv, {.seed = 17});
  ex.describe(
      "E15: overlay quality vs churn intensity",
      "high churn degrades open overlays: lookups hit departed nodes, pay "
      "timeouts, and fail — while a stable (cloud-like) population keeps "
      "answering fast",
      "300-node Kademlia with live Weibull session churn; sweep the mean "
      "session length down from 'stable servers' to minutes-long sessions; "
      "120 find-node queries per row");

  struct Cfg {
    const char* label;
    double session_min;
  };
  const Cfg rows[] = {
      {"stable servers (no churn)", 0},
      {"mean session 120 min", 120},
      {"mean session 60 min", 60},
      {"mean session 20 min", 20},
      {"mean session 5 min", 5},
  };
  // Independent sweep points: each builds its own Simulator from the root
  // seed, so with --jobs N they run on worker threads and merge in index
  // order — the artifact bytes don't depend on N.
  ex.run_points(std::size(rows), [&](sim::PointScope& scope) {
    const Cfg& r = rows[scope.index()];
    const Row out = run(300, r.session_min, scope.root_seed(), scope);
    scope.add_row({{"population", r.label},
                   {"success", bench::Value(out.success, 2)},
                   {"p50_s", bench::Value(out.p50_s, 2)},
                   {"p90_s", bench::Value(out.p90_s, 2)},
                   {"timeouts_per_lookup",
                    bench::Value(out.timeouts_per_lookup, 1)}});
  });
  const int rc = ex.finish();
  ex.print(
      "\nThe stable row answers nearly everything within a couple of RTT\n"
      "rounds; as sessions shrink toward file-sharing-like lifetimes the\n"
      "timeout tax mounts and success erodes — Problem 2's 'no rival to\n"
      "stable cloud servers' in one table.\n");
  return rc;
}
