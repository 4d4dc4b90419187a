// Utilities / smart-grid "blockchain island" (§V-A).
//
// "The utilities landscape is evolving into a decentralized and smart power
// grid, with distributed power generation from both residential and business
// clients ... With blockchains, utilities could provide a trustworthy and
// secure platform for distributed grid and smart device usage."
//
// Prosumers meter their generation, offer surplus kWh, and neighbors buy it;
// the utility and the co-op both endorse every settlement. Double-sells are
// caught by MVCC, over-sells by the chaincode's balance check.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/decentnet.hpp"
#include "sim/experiment.hpp"

using namespace decentnet;

int main(int argc, char** argv) {
  sim::ExperimentHarness ex("example_smart_grid", argc, argv, {.seed = 88});
  ex.describe("smart-grid energy trading island",
              "prosumers trade surplus kWh on a permissioned channel; "
              "double-sells die by MVCC, over-sells by chaincode, and no "
              "broker holds the master copy",
              "3-org Fabric channel (utility, coop, regulator) with Raft "
              "ordering; metering, offers, buys, and a racing double-buy");
  sim::Simulator simu(ex.seed());
  ex.instrument(simu);
  net::Network netw(simu,
                    std::make_unique<net::LogNormalLatency>(sim::millis(5),
                                                            0.3),
                    net::NetworkConfig{.expected_nodes = 8},
                    &ex.metrics());
  fabric::MembershipService msp(4);
  fabric::EndorsementPolicy policy{2};
  const char* orgs[] = {"utility", "coop", "regulator"};
  auto energy = std::make_shared<fabric::EnergyTradingContract>();
  std::vector<std::unique_ptr<fabric::FabricPeer>> peers;
  for (int o = 0; o < 3; ++o) {
    peers.push_back(std::make_unique<fabric::FabricPeer>(
        netw, netw.new_node_id(), orgs[o], msp, policy,
        300 + static_cast<std::uint64_t>(o)));
    peers.back()->install(energy);
  }
  peers[0]->set_event_source(true);
  fabric::RaftOrderer orderer(netw, 3, fabric::OrdererConfig{});
  for (auto& p : peers) orderer.register_peer(p->addr());
  simu.run_until(sim::seconds(2));

  fabric::FabricClient client(netw, netw.new_node_id(), policy);
  client.set_endorsers({peers[0].get(), peers[1].get(), peers[2].get()});
  client.set_orderer(&orderer);

  int ok_count = 0, rejected = 0;
  std::string last_error;
  auto invoke = [&](std::vector<std::string> args) {
    client.invoke("energy", std::move(args),
                  [&](bool ok, const std::string& payload, sim::SimDuration) {
                    if (ok) {
                      ++ok_count;
                    } else {
                      ++rejected;
                      last_error = payload;
                    }
                  });
    simu.run_until(simu.now() + sim::seconds(3));
  };

  ex.print("1. smart meters report a sunny afternoon\n");
  invoke({"meter", "house-1", "40"});   // rooftop solar surplus
  invoke({"meter", "house-2", "15"});
  invoke({"meter", "factory", "-30"});  // net consumer
  invoke({"meter", "school", "-10"});

  ex.print("2. prosumers post offers\n");
  invoke({"offer", "off-1", "house-1", "25", "12"});
  invoke({"offer", "off-2", "house-2", "10", "14"});
  ex.print("3. an over-sell is rejected by chaincode\n");
  invoke({"offer", "off-3", "house-2", "500", "9"});
  ex.print("   -> %s\n", last_error.c_str());

  ex.print("4. consumers buy\n");
  invoke({"buy", "off-1", "factory"});
  invoke({"buy", "off-2", "school"});
  ex.print("5. a double-buy of a consumed offer is rejected\n");
  invoke({"buy", "off-1", "school"});
  ex.print("   -> %s\n", last_error.c_str());

  // Concurrent conflicting buys: both endorse against the same state; MVCC
  // lets exactly one commit.
  ex.print("6. two buyers race for the same offer (MVCC)\n");
  invoke({"meter", "house-1", "20"});
  invoke({"offer", "off-4", "house-1", "18", "11"});
  int race_ok = 0, race_fail = 0;
  for (const char* buyer : {"factory", "school"}) {
    client.invoke("energy", {"buy", "off-4", buyer},
                  [&](bool ok, const std::string&, sim::SimDuration) {
                    (ok ? race_ok : race_fail) += 1;
                  });
  }
  simu.run_until(simu.now() + sim::seconds(5));
  ex.print("   -> %d committed, %d rejected (exactly one may win)\n",
           race_ok, race_fail);

  ex.print("\nfinal settled balances (identical on every org's peer):\n");
  for (const char* org : {"house-1", "house-2", "factory", "school"}) {
    client.invoke("energy", {"balance", org},
                  [&ex, org](bool ok, const std::string& payload,
                             sim::SimDuration) {
                    ex.print("  %-8s: %s kWh\n", org,
                             ok ? payload.c_str() : "?");
                  });
    simu.run_until(simu.now() + sim::seconds(3));
  }
  ex.print("\nledger ops committed=%d rejected=%d; MVCC conflicts seen by "
           "utility peer: %llu\n",
           ok_count, rejected,
           static_cast<unsigned long long>(
               peers[0]->stats().mvcc_conflicts));
  ex.print(
      "\nGrid trust without a broker: settlement needs 2-of-3 org\n"
      "endorsements, the regulator audits by holding a full replica, and\n"
      "conflicting trades are serialized by the ledger, not by a middleman.\n");

  ex.add_row({{"check", "ops_committed"},
              {"ok", ok_count > 0},
              {"count", std::int64_t{ok_count}}});
  ex.add_row({{"check", "invalid_ops_rejected"},
              {"ok", rejected == 2},
              {"count", std::int64_t{rejected}}});
  ex.add_row({{"check", "mvcc_race_exactly_one_winner"},
              {"ok", race_ok == 1 && race_fail == 1},
              {"count", std::int64_t{race_ok}}});
  return ex.finish();
}
