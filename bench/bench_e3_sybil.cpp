// E3 — Sybil attacks on open overlays (§II-B Problem 3).
// "Open networks where peers can assign their identities are prone to Sybil
// attacks ... the idea is to impersonate thousands of identifiers with a few
// powerful nodes." (Douceur; the KAD/BitTorrent-DHT attacks.)
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "net/network.hpp"
#include "overlay/kademlia.hpp"
#include "p2p/sybil.hpp"

using namespace decentnet;

namespace {

struct Row {
  double store_capture;   // fraction of new stores that land only on sybils
  double lookup_failure;  // fraction of post-attack lookups that fail
  std::uint64_t captured_rpcs;
};

Row run(std::size_t honest_n, std::size_t sybils, std::uint64_t seed,
        sim::ExperimentHarness& ex) {
  sim::Simulator simu(seed);
  ex.instrument(simu);
  net::Network netw(
      simu, std::make_unique<net::ConstantLatency>(sim::millis(40)),
      net::NetworkConfig{.expected_nodes = honest_n + sybils},
      &ex.metrics());
  overlay::KademliaConfig cfg;
  std::vector<std::unique_ptr<overlay::KademliaNode>> honest;
  for (std::size_t i = 0; i < honest_n; ++i) {
    honest.push_back(std::make_unique<overlay::KademliaNode>(
        netw, netw.new_node_id(), cfg));
  }
  honest[0]->join({});
  for (std::size_t i = 1; i < honest_n; ++i) {
    honest[i]->join({{honest[0]->id(), honest[0]->addr()}});
    if (i % 16 == 0) simu.run_until(simu.now() + sim::seconds(2));
  }
  simu.run_until(simu.now() + sim::minutes(1));

  Row row{0, 0, 0};
  const int kKeys = 20;
  sim::Rng rng(seed ^ 0x5B);
  int stores_captured = 0, lookups_failed = 0;
  for (int k = 0; k < kKeys; ++k) {
    const overlay::Key key = crypto::sha256("content-" + std::to_string(k));
    std::unique_ptr<p2p::SybilAttack> attack;
    if (sybils > 0) {
      p2p::SybilConfig scfg;
      scfg.count = sybils;
      attack = std::make_unique<p2p::SybilAttack>(netw, scfg, key, rng);
      attack->launch();
      std::vector<overlay::KademliaNode*> targets;
      for (auto& h : honest) targets.push_back(h.get());
      attack->infiltrate(targets, 4, rng);
      simu.run_until(simu.now() + sim::seconds(5));
    }
    // A user publishes under the (now contested) key...
    honest[1 + static_cast<std::size_t>(k) % (honest.size() - 1)]->store(
        key, "payload", [](std::size_t) {});
    simu.run_until(simu.now() + sim::seconds(30));
    // ...and another user tries to fetch it.
    bool found = false;
    honest[(3 + static_cast<std::size_t>(k) * 7) % honest.size()]->find_value(
        key, [&](overlay::LookupResult r) { found = r.found_value; });
    simu.run_until(simu.now() + sim::seconds(30));
    if (!found) ++lookups_failed;
    // Did any honest node end up holding the value?
    bool on_honest = false;
    for (const auto& h : honest) {
      if (h->storage().count(key) > 0) {
        on_honest = true;
        break;
      }
    }
    if (!on_honest) ++stores_captured;
    if (attack) row.captured_rpcs += attack->captured_requests();
  }
  row.store_capture = static_cast<double>(stores_captured) / kKeys;
  row.lookup_failure = static_cast<double>(lookups_failed) / kKeys;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E3_sybil", argc, argv, {.seed = 77});
  ex.describe(
      "E3: sybil capture of a Kademlia keyspace region",
      "self-assigned identifiers let an attacker park identities next to "
      "any key: new stores land on attacker nodes and vanish (the measured "
      "KAD/BT-DHT attacks)",
      "250 honest nodes; per key, mint N sybil ids sharing a 24-bit prefix "
      "with the key, infiltrate, then publish + fetch; 20 keys per row");

  for (const std::size_t sybils : {0u, 2u, 4u, 6u, 8u, 16u, 64u}) {
    const Row r = run(250, sybils, ex.seed(), ex);
    ex.add_row({{"sybils_per_key", std::uint64_t{sybils}},
                {"store_capture", bench::Value(r.store_capture, 2)},
                {"lookup_failure", bench::Value(r.lookup_failure, 2)},
                {"captured_rpcs", r.captured_rpcs}});
  }
  const int rc = ex.finish();
  ex.print(
      "\nA few dozen identities per key — trivially cheap, since identities\n"
      "are free — suffice to swallow most new publications in the region.\n"
      "This is the paper's Problem 3, and the defense (admission-controlled\n"
      "identity) is exactly what the permissioned MSP in E12 provides.\n");
  return rc;
}
