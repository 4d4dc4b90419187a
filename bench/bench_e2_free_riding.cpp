// E2 — Free riding and incentives (§II-B Problem 1).
// "Users do not donate their computing, storage and bandwidth resources for
// altruist reasons ... free riding was extensively reported in the Gnutella
// overlay [70% shared nothing]. BitTorrent mitigated the free riding problem
// by designing the protocol including incentives (tit-for-tat) ... but
// collaboration is only enforced during the download process."
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "overlay/flood.hpp"
#include "p2p/bittorrent.hpp"
#include "p2p/workload.hpp"
#include "sim/metrics.hpp"

using namespace decentnet;

namespace {

struct GnutellaRow {
  double success;
  double msgs_per_query;
  double mean_hops;
};

GnutellaRow run_gnutella(double free_rider_fraction, std::uint64_t seed,
                         sim::ExperimentHarness& ex) {
  sim::Simulator simu(seed);
  ex.instrument(simu);
  const std::size_t n = 400;
  net::Network netw(
      simu, std::make_unique<net::LogNormalLatency>(sim::millis(60), 0.4),
      net::NetworkConfig{.expected_nodes = n}, &ex.metrics());
  sim::Rng rng(seed ^ 0x62);
  p2p::ContentCatalog catalog({}, rng);
  const auto plan = p2p::plan_population(catalog, n, free_rider_fraction, rng);

  const auto adj = net::random_graph(n, 4, rng);
  std::vector<net::NodeId> addrs;
  for (std::size_t i = 0; i < n; ++i) addrs.push_back(netw.new_node_id());
  std::vector<std::unique_ptr<overlay::GnutellaNode>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<overlay::GnutellaNode>(
        netw, addrs[i], overlay::FloodConfig{}));
    std::vector<net::NodeId> nbrs;
    for (std::size_t j : adj[i]) nbrs.push_back(addrs[j]);
    nodes.back()->join(std::move(nbrs));
    for (overlay::ContentId item : plan.shared[i]) {
      nodes.back()->add_content(item);
    }
  }
  const int kQueries = 200;
  int hits = 0;
  sim::Histogram hops;
  const auto msgs_before = netw.messages_sent();
  for (int q = 0; q < kQueries; ++q) {
    auto& src = *nodes[rng.uniform_int(n)];
    bool done = false;
    src.query(catalog.sample_query(rng), [&](overlay::QueryOutcome out) {
      done = true;
      if (out.found) {
        ++hits;
        hops.record(static_cast<double>(out.hops));
      }
    });
    simu.run_until(simu.now() + sim::seconds(25));
    (void)done;
  }
  GnutellaRow row;
  row.success = static_cast<double>(hits) / kQueries;
  row.msgs_per_query =
      static_cast<double>(netw.messages_sent() - msgs_before) / kQueries;
  row.mean_hops = hops.mean();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E2_free_riding", argc, argv, {.seed = 5});
  ex.describe(
      "E2: free riding in open file-sharing networks",
      "most Gnutella peers shared nothing, degrading search for everyone; "
      "BitTorrent's tit-for-tat punishes riders during a download but "
      "nothing sustains the infrastructure between downloads",
      "(a) 400-node Gnutella flood search vs free-rider fraction; (b) one "
      "BitTorrent swarm with/without tit-for-tat, contributor vs rider "
      "completion");

  for (const double fr : {0.0, 0.25, 0.50, 0.66, 0.80, 0.90}) {
    const auto r = run_gnutella(fr, ex.seed(), ex);
    ex.add_row({{"scenario", "gnutella"},
                {"free_riders_pct", bench::Value(fr * 100, 0)},
                {"success_rate", bench::Value(r.success, 3)},
                {"msgs_per_query", bench::Value(r.msgs_per_query, 0)},
                {"mean_hops_to_hit", bench::Value(r.mean_hops, 1)}});
  }

  for (const bool tft : {true, false}) {
    sim::Simulator simu(ex.seed() ^ 2);
    ex.instrument(simu);
    p2p::SwarmConfig cfg;
    cfg.pieces = 64;
    cfg.piece_bytes = 64 * 1024;
    cfg.tit_for_tat = tft;
    cfg.seed_upload_bps = 1e6 / 8;
    cfg.peer_upload_bps = 2e6 / 8;
    p2p::Swarm swarm(simu, cfg, 1, 16, 4);
    swarm.start();
    simu.run_until(sim::hours(2));
    const double contrib = sim::to_seconds(swarm.median_finish_time(false));
    const double rider = sim::to_seconds(swarm.median_finish_time(true));
    ex.add_row(
        {{"scenario", "bittorrent"},
         {"choking", tft ? "tit-for-tat" : "random (no incentives)"},
         {"contrib_median_s", bench::Value(contrib, 1)},
         {"rider_median_s", bench::Value(rider, 1)},
         {"rider_penalty_x",
          contrib > 0 ? bench::Value(rider / contrib, 2) : bench::Value()}});
  }
  const int rc = ex.finish();
  ex.print(
      "\nGnutella search quality collapses with the sharing base; under\n"
      "tit-for-tat riders pay a completion-time penalty that vanishes with\n"
      "random unchoking. Neither mechanism pays anyone to keep a DHT or\n"
      "relay infrastructure alive between downloads — the gap the paper says\n"
      "cryptocurrency incentives tried (and failed) to fill for services.\n");
  return rc;
}
