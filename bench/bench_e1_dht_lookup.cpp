// E1 — DHT lookup latency in open networks (§II-A, citing Jiménez et al.).
// "Lookups were performed within 5 seconds 90% of the time in eMule's Kad,
// but the median lookup time was around a minute in both BitTorrent DHTs."
//
// The mechanism: open DHTs accumulate dead/unreachable contacts (churn,
// NATs); every dead contact on the lookup path costs an RPC timeout. Kad
// deployments kept tables fresh and timeouts tight; BitTorrent DHT clients
// carried many stale entries and conservative timeouts.
#include <iterator>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "net/network.hpp"
#include "overlay/kademlia.hpp"
#include "sim/metrics.hpp"

using namespace decentnet;

namespace {

struct Row {
  double p50_s, p90_s, within5s, timeouts;
};

Row run(std::size_t n, double unreachable_fraction,
        sim::SimDuration rpc_timeout, std::size_t alpha, bool naive,
        std::uint64_t seed, sim::PointScope& scope) {
  sim::Simulator simu(seed);
  scope.instrument(simu);
  net::NetworkConfig net_cfg;
  net_cfg.expected_nodes = n;
  net_cfg.track_spans = true;  // lookup path lengths via causal spans
  net::Network netw(
      simu, std::make_unique<net::LogNormalLatency>(sim::millis(100), 0.5),
      net_cfg, &scope.metrics());
  overlay::KademliaConfig cfg;
  cfg.rpc_timeout = rpc_timeout;
  cfg.alpha = alpha;
  cfg.naive_eviction = naive;
  cfg.evict_on_failure = !naive;
  std::vector<std::unique_ptr<overlay::KademliaNode>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<overlay::KademliaNode>(
        netw, netw.new_node_id(), cfg));
  }
  nodes[0]->join({});
  for (std::size_t i = 1; i < n; ++i) {
    nodes[i]->join({{nodes[0]->id(), nodes[0]->addr()}});
    if (i % 16 == 0) simu.run_until(simu.now() + sim::seconds(4));
  }
  simu.run_until(simu.now() + sim::minutes(2));
  // NAT the configured fraction: they can still send (and so keep pushing
  // themselves into routing tables via their own lookups and refreshes),
  // but every RPC sent *to* them times out — the connectivity defect the
  // cited measurement study found rampant in the BitTorrent DHTs.
  sim::Rng rng(seed ^ 0xD0A);
  std::vector<bool> natted(n, false);
  for (std::size_t i = 1; i < n; ++i) {
    if (rng.chance(unreachable_fraction)) {
      natted[i] = true;
      netw.set_unreachable(nodes[i]->addr(), true);
    }
  }
  // Keep the pollution alive: NATed nodes periodically look up random keys,
  // refreshing their presence in everyone's buckets.
  for (std::size_t i = 1; i < n; ++i) {
    if (!natted[i]) continue;
    overlay::KademliaNode* node = nodes[i].get();
    simu.schedule_periodic(sim::seconds(20 + i % 17), sim::seconds(45),
                           [node, &rng] {
                             overlay::Key k;
                             for (auto& b : k.bytes) {
                               b = static_cast<std::uint8_t>(rng.next());
                             }
                             node->lookup(k, [](overlay::LookupResult) {});
                           });
  }
  simu.run_until(simu.now() + sim::minutes(5));
  sim::Histogram latency;
  std::uint64_t timeouts = 0, lookups = 0;
  for (int q = 0; q < 100; ++q) {
    overlay::KademliaNode* src = nullptr;
    do {
      src = nodes[rng.uniform_int(nodes.size())].get();
    } while (netw.unreachable(src->addr()));
    const overlay::Key target =
        crypto::sha256("lookup-target-" + std::to_string(q));
    bool done = false;
    src->lookup(target, [&](overlay::LookupResult r) {
      done = true;
      latency.record(sim::to_seconds(r.elapsed));
      timeouts += r.timeouts;
    });
    simu.run_until(simu.now() + sim::minutes(3));
    if (done) ++lookups;
  }
  Row row;
  row.p50_s = latency.percentile(50);
  row.p90_s = latency.percentile(90);
  row.within5s = latency.fraction_below(5.0);
  row.timeouts = lookups == 0 ? 0
                              : static_cast<double>(timeouts) /
                                    static_cast<double>(lookups);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E1_dht_lookup", argc, argv, {.seed = 11});
  ex.describe(
      "E1: Kademlia lookup latency vs dead-contact fraction",
      "Kad answered 90% of lookups within 5 s; BitTorrent DHTs' median was "
      "~1 minute — same protocol, different table hygiene [Jimenez et al.]",
      "600-node Kademlia over a 100 ms-median WAN; sweep the fraction of "
      "NATed (send-only) nodes and the per-RPC timeout; 100 lookups per "
      "row");

  struct Cfg {
    const char* label;
    double natted;
    double timeout_s;
    std::size_t alpha;
    bool naive;
  };
  const Cfg profiles[] = {
      {"clean net, spec eviction (Kad-like)", 0.00, 1.0, 3, false},
      {"40% NATed, spec eviction, parallel", 0.40, 1.0, 3, false},
      {"40% NATed, naive eviction, parallel", 0.40, 2.0, 3, true},
      {"40% NATed, naive + serial (BT-like)", 0.40, 5.0, 1, true},
      {"60% NATed, naive + serial (BT-like)", 0.60, 8.0, 1, true},
  };
  // Each profile is an independent sweep point: with --jobs N the points run
  // on worker threads, each with its own Simulator and registry, and merge in
  // index order — the artifact stays byte-identical for any N. Every point
  // reuses the root seed (not seed()) to preserve the historical single-seed
  // sweep bytes.
  ex.run_points(std::size(profiles), [&](sim::PointScope& scope) {
    const Cfg& p = profiles[scope.index()];
    const Row r = run(600, p.natted, sim::seconds(p.timeout_s), p.alpha,
                      p.naive, scope.root_seed(), scope);
    scope.add_row({{"profile", p.label},
                   {"natted_pct", bench::Value(p.natted * 100, 0)},
                   {"rpc_timeout_s", bench::Value(p.timeout_s, 1)},
                   {"p50_s", bench::Value(r.p50_s, 2)},
                   {"p90_s", bench::Value(r.p90_s, 2)},
                   {"within_5s", bench::Value(r.within5s, 2)},
                   {"timeouts_per_lookup", bench::Value(r.timeouts, 1)}});
  });
  const int rc = ex.finish();
  ex.print(
      "\nThe Kad-like row reproduces '90%% within 5 s'; the BT-like rows\n"
      "(tables polluted by send-only NATed peers, serial lookups, patient\n"
      "timeouts) drive the median toward the minute the paper quotes. The\n"
      "protocol is identical — the open network's connectivity defects are\n"
      "the difference.\n");
  return rc;
}
