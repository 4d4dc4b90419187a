// Interoperating "blockchain islands" (§V).
//
// "If the issue of interoperability of multiple blockchains is addressed
// properly, one can imagine multiple such decentralized groups which each
// rely on individual blockchains, forming amalgams (within as well as
// across domains/industries), to add to the degree of decentralization."
//
// Two permissioned islands — a national manufacturing channel and a
// cross-border trade channel — share one notary organization enrolled in
// both. An asset moves between the islands with a lock / mint / burn
// handshake driven by the notary: no global chain, no trusted third party
// beyond what each consortium already accepted, and every step is an
// ordinary endorsed transaction on its island.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/decentnet.hpp"
#include "sim/experiment.hpp"

using namespace decentnet;

namespace {

struct Island {
  std::string name;
  std::vector<std::unique_ptr<fabric::FabricPeer>> peers;
  std::unique_ptr<fabric::SoloOrderer> orderer;
  std::unique_ptr<fabric::FabricClient> client;
  fabric::EndorsementPolicy policy{2};

  Island(net::Network& netw, fabric::MembershipService& msp,
         std::string island_name, std::vector<std::string> orgs,
         std::uint64_t seed_base)
      : name(std::move(island_name)) {
    auto asset = std::make_shared<fabric::AssetTransferContract>();
    for (std::size_t o = 0; o < orgs.size(); ++o) {
      peers.push_back(std::make_unique<fabric::FabricPeer>(
          netw, netw.new_node_id(), orgs[o], msp, policy, seed_base + o));
      peers.back()->install(asset);
    }
    peers.front()->set_event_source(true);
    orderer = std::make_unique<fabric::SoloOrderer>(netw, netw.new_node_id(),
                                                    fabric::OrdererConfig{});
    for (auto& p : peers) orderer->register_peer(p->addr());
    client =
        std::make_unique<fabric::FabricClient>(netw, netw.new_node_id(),
                                               policy);
    std::vector<fabric::FabricPeer*> endorsers;
    for (auto& p : peers) endorsers.push_back(p.get());
    client->set_endorsers(endorsers);
    client->set_orderer(orderer.get());
  }

  /// Synchronous-style invoke for the walkthrough.
  bool invoke(sim::Simulator& simu, std::vector<std::string> args,
              std::string* payload_out = nullptr) {
    bool result = false;
    client->invoke("asset", std::move(args),
                   [&](bool ok, const std::string& payload, sim::SimDuration) {
                     result = ok;
                     if (payload_out) *payload_out = payload;
                   });
    simu.run_until(simu.now() + sim::seconds(5));
    return result;
  }
};

}  // namespace

int main(int argc, char** argv) {
  sim::ExperimentHarness ex("example_blockchain_islands", argc, argv,
                            {.seed = 2718});
  ex.describe("interoperating blockchain islands",
              "two permissioned islands bridged by a notary org enrolled in "
              "both: cross-island transfer via lock / mint / burn, no global "
              "chain (the paper's SV amalgam proposal)",
              "two 3-org Fabric channels sharing one network and one notary");
  sim::Simulator simu(ex.seed());
  ex.instrument(simu);
  net::Network netw(simu,
                    std::make_unique<net::LogNormalLatency>(sim::millis(12),
                                                            0.3),
                    net::NetworkConfig{.expected_nodes = 16},
                    &ex.metrics());
  fabric::MembershipService msp(6);

  // The notary org is a member of BOTH consortiums — an ordinary member,
  // not a super-user: its writes still need a second endorsement on each
  // island.
  Island manufacturing(netw, msp, "manufacturing-island",
                       {"steelworks", "machinery", "notary"}, 7000);
  Island trade(netw, msp, "trade-island",
               {"port-authority", "shipping-line", "notary"}, 8000);

  ex.print("island A: %s (steelworks, machinery, notary)\n",
           manufacturing.name.c_str());
  ex.print("island B: %s (port-authority, shipping-line, notary)\n\n",
           trade.name.c_str());

  // 1. The asset exists on the manufacturing island.
  bool ok = manufacturing.invoke(simu,
                                 {"create", "turbine-88", "steelworks", "250000"});
  ex.print("1. turbine-88 registered on %s: %s\n",
           manufacturing.name.c_str(), ok ? "ok" : "FAILED");
  ex.add_row({{"step", "register_on_island_a"}, {"ok", ok}});

  // 2. Cross-island transfer: lock on A (custody to the notary)...
  ok = manufacturing.invoke(simu, {"transfer", "turbine-88", "notary:locked"});
  ex.print("2. locked in notary custody on island A: %s\n",
           ok ? "ok" : "FAILED");
  ex.add_row({{"step", "lock_on_island_a"}, {"ok", ok}});

  // 3. ...mint the mirrored asset on B, owned by the receiving org.
  ok = trade.invoke(simu, {"create", "turbine-88", "shipping-line", "250000"});
  ex.print("3. mirrored onto island B for shipping-line: %s\n",
           ok ? "ok" : "FAILED");
  ex.add_row({{"step", "mint_on_island_b"}, {"ok", ok}});

  // 4. Both islands can audit their half of the handshake.
  std::string a_view, b_view;
  manufacturing.invoke(simu, {"read", "turbine-88"}, &a_view);
  trade.invoke(simu, {"read", "turbine-88"}, &b_view);
  ex.print("4. island A sees: %s | island B sees: %s\n", a_view.c_str(),
           b_view.c_str());

  // 5. A double-mint on B must fail: the asset id is already taken there.
  ok = trade.invoke(simu, {"create", "turbine-88", "smuggler", "1"});
  ex.print("5. double-mint attempt on island B rejected: %s\n",
           !ok ? "yes" : "NO (bug!)");
  ex.add_row({{"step", "double_mint_rejected"}, {"ok", !ok}});

  // 6. Return leg: burn on B (custody back to notary), release on A.
  ok = trade.invoke(simu, {"transfer", "turbine-88", "notary:burned"});
  ex.print("6. burned into notary custody on island B: %s\n",
           ok ? "ok" : "FAILED");
  ex.add_row({{"step", "burn_on_island_b"}, {"ok", ok}});
  ok = manufacturing.invoke(simu, {"transfer", "turbine-88", "machinery"});
  ex.print("7. released to machinery on island A: %s\n",
           ok ? "ok" : "FAILED");
  ex.add_row({{"step", "release_on_island_a"}, {"ok", ok}});

  ex.print("\nledger summary:\n");
  for (Island* island : {&manufacturing, &trade}) {
    ex.print("  %-21s peers committed: ", island->name.c_str());
    for (auto& p : island->peers) {
      ex.print("%llu ",
               static_cast<unsigned long long>(p->stats().txs_committed));
    }
    ex.print("\n");
  }
  ex.print(
      "\nNo global blockchain was needed: each island kept consensus among\n"
      "its own members, and the bridge is just a member with accounts on\n"
      "both — the amalgam-of-islands architecture §V proposes, with the\n"
      "notary's honesty bounded by each island's endorsement policy.\n");
  return ex.finish();
}
