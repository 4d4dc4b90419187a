// Quickstart: a whirlwind tour of the decentnet public API.
//
//   1. spin up a deterministic simulation and network,
//   2. run a Kademlia DHT (the P2P substrate the paper reviews),
//   3. run a small proof-of-work cryptocurrency on the same kernel,
//   4. run a permissioned (Fabric-style) channel and commit a transaction,
//   5. print what happened.
//
// Everything is simulated time: the whole program runs in milliseconds of
// wall clock while covering hours of protocol time.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/decentnet.hpp"
#include "sim/experiment.hpp"

using namespace decentnet;

int main(int argc, char** argv) {
  sim::ExperimentHarness ex("example_quickstart", argc, argv, {.seed = 2026});
  ex.describe("decentnet quickstart",
              "whirlwind tour of the public API: one kernel runs a DHT, a "
              "PoW currency, and a permissioned channel",
              "50-node Kademlia, 8-node PoW mesh, 3-org Fabric channel on "
              "one simulated network");

  // --- 1. Kernel + network --------------------------------------------------
  sim::Simulator simu(ex.seed());
  ex.instrument(simu);
  net::Network netw(simu,
                    std::make_unique<net::LogNormalLatency>(sim::millis(50),
                                                            0.4),
                    net::NetworkConfig{.expected_nodes = 64},
                    &ex.metrics());

  // --- 2. A 50-node Kademlia DHT --------------------------------------------
  std::vector<std::unique_ptr<overlay::KademliaNode>> dht;
  for (int i = 0; i < 50; ++i) {
    dht.push_back(std::make_unique<overlay::KademliaNode>(
        netw, netw.new_node_id(), overlay::KademliaConfig{}));
  }
  dht[0]->join({});
  for (std::size_t i = 1; i < dht.size(); ++i) {
    dht[i]->join({{dht[0]->id(), dht[0]->addr()}});
  }
  simu.run_until(sim::minutes(2));

  dht[7]->store(crypto::sha256("greeting"), "hello, decentralized world");
  simu.run_until(simu.now() + sim::seconds(30));
  bool dht_found = false;
  std::uint64_t dht_rpcs = 0;
  dht[33]->find_value(crypto::sha256("greeting"),
                      [&](overlay::LookupResult r) {
                        dht_found = r.found_value;
                        dht_rpcs = r.rpcs_sent;
                        ex.print("DHT lookup: %s (rpcs=%zu, %.0f ms)\n",
                                 r.found_value ? r.value->c_str()
                                               : "(not found)",
                                 r.rpcs_sent, sim::to_millis(r.elapsed));
                      });
  simu.run_until(simu.now() + sim::seconds(30));

  // --- 3. A tiny proof-of-work currency --------------------------------------
  chain::ChainParams params;
  params.target_block_interval = sim::seconds(30);
  params.retarget_window = 0;
  params.initial_difficulty = 1e6;
  params.block_reward = 5000;
  const chain::Wallet alice = chain::Wallet::from_seed(1);
  const chain::Wallet bob = chain::Wallet::from_seed(2);
  const chain::Wallet miner_wallet = chain::Wallet::from_seed(3);
  const auto genesis =
      chain::make_genesis_multi({{alice.address(), 100'000}}, 1e6);

  std::vector<std::unique_ptr<chain::FullNode>> nodes;
  std::vector<net::NodeId> addrs;
  for (int i = 0; i < 8; ++i) addrs.push_back(netw.new_node_id());
  for (int i = 0; i < 8; ++i) {
    nodes.push_back(std::make_unique<chain::FullNode>(
        netw, addrs[static_cast<std::size_t>(i)], params, genesis));
    std::vector<net::NodeId> nbrs;
    for (int j = 0; j < 8; ++j) {
      if (j != i) nbrs.push_back(addrs[static_cast<std::size_t>(j)]);
    }
    nodes.back()->connect(std::move(nbrs));
  }
  chain::Miner miner(*nodes[0], miner_wallet.address(), 1e6 / 30.0);
  miner.start();

  const auto payment = alice.pay(nodes[2]->utxo(), bob.address(),
                                 /*amount=*/25'000, /*fee=*/100);
  nodes[2]->submit_transaction(*payment);
  simu.run_until(simu.now() + sim::minutes(10));
  miner.stop();
  simu.run_until(simu.now() + sim::minutes(1));
  ex.print(
      "PoW chain: height=%llu, bob's balance=%lld, miner earned=%lld\n",
      static_cast<unsigned long long>(nodes[5]->tree().best_height()),
      static_cast<long long>(nodes[5]->utxo().balance_of(bob.address())),
      static_cast<long long>(
          nodes[5]->utxo().balance_of(miner_wallet.address())));

  // --- 4. A permissioned channel ---------------------------------------------
  fabric::MembershipService msp(9);
  fabric::EndorsementPolicy policy{2};
  auto asset = std::make_shared<fabric::AssetTransferContract>();
  std::vector<std::unique_ptr<fabric::FabricPeer>> peers;
  for (int o = 0; o < 3; ++o) {
    peers.push_back(std::make_unique<fabric::FabricPeer>(
        netw, netw.new_node_id(), "org" + std::to_string(o), msp, policy,
        500 + static_cast<std::uint64_t>(o)));
    peers.back()->install(asset);
  }
  peers[0]->set_event_source(true);
  fabric::SoloOrderer orderer(netw, netw.new_node_id(),
                              fabric::OrdererConfig{});
  for (auto& p : peers) orderer.register_peer(p->addr());
  fabric::FabricClient client(netw, netw.new_node_id(), policy);
  client.set_endorsers({peers[0].get(), peers[1].get(), peers[2].get()});
  client.set_orderer(&orderer);

  bool fabric_commit_ok = false;
  client.invoke("asset", {"create", "bike42", "alice", "900"},
                [&](bool ok, const std::string&, sim::SimDuration latency) {
                  fabric_commit_ok = ok;
                  ex.print(
                      "Fabric commit: asset created=%s in %.0f ms "
                      "(endorse -> order -> validate)\n",
                      ok ? "yes" : "no", sim::to_millis(latency));
                });
  simu.run_until(simu.now() + sim::seconds(10));
  bool fabric_query_ok = false;
  client.invoke("asset", {"read", "bike42"},
                [&](bool ok, const std::string& payload, sim::SimDuration) {
                  fabric_query_ok = ok;
                  ex.print("Fabric query: bike42 -> %s\n",
                           ok ? payload.c_str() : "(error)");
                });
  simu.run_until(simu.now() + sim::seconds(10));

  ex.add_row({{"stage", "dht_lookup"},
              {"ok", dht_found},
              {"value", dht_rpcs}});
  ex.add_row({{"stage", "pow_chain_height"},
              {"ok", nodes[5]->tree().best_height() > 0},
              {"value", std::uint64_t{nodes[5]->tree().best_height()}}});
  ex.add_row(
      {{"stage", "pow_bob_balance"},
       {"ok", nodes[5]->utxo().balance_of(bob.address()) == 25'000},
       {"value",
        std::uint64_t{static_cast<std::uint64_t>(
            nodes[5]->utxo().balance_of(bob.address()))}}});
  ex.add_row({{"stage", "fabric_commit"}, {"ok", fabric_commit_ok}});
  ex.add_row({{"stage", "fabric_query"}, {"ok", fabric_query_ok}});

  ex.print(
      "\nSimulated %s of protocol time; %llu events; every run of this "
      "program\nprints exactly the same thing (seeded determinism).\n",
      sim::format_duration(simu.now()).c_str(),
      static_cast<unsigned long long>(simu.total_events_processed()));
  return ex.finish();
}
