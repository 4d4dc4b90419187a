// pow_chain: E5's Ethereum-like proof-of-work network, built from the
// public chain API so the benchmark can time the calls it issues.
//
// 32 full nodes on a random degree-6 mesh (80 ms lognormal latency), 10 of
// them mining 13 s blocks, 48 premined wallets paying each other at 15 tx/s
// (Poisson, below the ~17 tx/s a 60 KB block carries every 13 s, so the
// backlog stays bounded). Each wallet submits through one home node: its
// mempool then sees every pending spend of that wallet and rejects a coin
// picked twice, so every accepted payment can confirm. A fixed count of
// payments (about one minute of load) leaves about two minutes, nine
// blocks, before the horizon for the last ones to confirm.
#include <functional>
#include <memory>
#include <unordered_set>

#include "chain/miner.hpp"
#include "chain/node.hpp"
#include "chain/params.hpp"
#include "chain/wallet.hpp"
#include "crypto/keys.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "probe.hpp"
#include "sim/simulator.hpp"

namespace decentbench {
namespace {

namespace chain = decentnet::chain;

constexpr std::size_t kNodes = 32;
constexpr std::size_t kMiners = 10;
constexpr std::size_t kWallets = 48;
constexpr std::size_t kOutputsPerWallet = 100;
constexpr double kTxPerSec = 15.0;
constexpr std::size_t kPayments = 900;  // one minute at kTxPerSec
constexpr std::size_t kPayAttempts = 8;
constexpr std::size_t kBuriedDepth = 6;
constexpr std::size_t kCryptoSampleTxs = 256;

enum Kind : std::size_t { kTx, kBlock, kOther, kKinds };

std::size_t classify(const net::Message& m) {
  if (m.is<chain::chain_msg::TxMsg>()) return kTx;
  if (m.is<chain::chain_msg::BlockMsg>()) return kBlock;
  return kOther;
}

/// Median over `reps` repetitions of the mean ns per item of `fn`, which
/// processes `items` items per call.
template <typename Fn>
double ns_per_item(std::size_t items, Fn&& fn, int reps = 7) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    fn();
    v.push_back(static_cast<double>(now_ns() - t0) /
                static_cast<double>(std::max<std::size_t>(items, 1)));
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Per-layer crypto costs on this run's own transaction and block shapes.
void time_crypto(Report& rep, const std::vector<chain::Transaction>& txs,
                 const std::vector<const chain::Wallet*>& payers,
                 const std::vector<chain::BlockPtr>& blocks) {
  std::uint8_t sink = 0;
  std::vector<crypto::Hash256> digests;
  for (const auto& tx : txs) digests.push_back(tx.signing_digest());
  rep.metric("crypto.sha256_tx_ns", ns_per_item(txs.size(), [&] {
               for (const auto& tx : txs) sink ^= tx.id().bytes[0];
             }));
  rep.metric("crypto.sign_ns", ns_per_item(txs.size(), [&] {
               for (std::size_t i = 0; i < txs.size(); ++i) {
                 sink ^= payers[i]->key().sign(digests[i]).bytes[0];
               }
             }));
  const auto& authority = crypto::KeyAuthority::global();
  rep.metric("crypto.verify_ns", ns_per_item(txs.size(), [&] {
               for (std::size_t i = 0; i < txs.size(); ++i) {
                 const auto& in = txs[i].inputs.front();
                 sink ^= static_cast<std::uint8_t>(
                     authority.verify(in.owner, digests[i], in.signature));
               }
             }));
  rep.metric("crypto.merkle_block_us", ns_per_item(blocks.size(), [&] {
               for (const auto& b : blocks) {
                 sink ^= b->compute_merkle_root().bytes[0];
               }
             }) / 1e3);
  volatile std::uint8_t keep = sink;
  (void)keep;
}

}  // namespace

Report run_pow_chain(const Options& o) {
  Report rep;
  Phases ph;
  const sim::SimTime horizon = o.small ? sim::seconds(150) : sim::minutes(3);
  const std::size_t payments = o.small ? 450 : kPayments;

  Samples pay_ns, submit_ns;
  std::vector<Recorder> recs(1, Recorder(kKinds));
  Recorder& rec = recs[0];
  sim::Profiler prof;
  std::uint64_t nodes_ns = 0;
  {
    sim::Simulator simu(o.seed);
    if (o.traced) simu.set_profiler(&prof);
    net::Network netw(simu,
                      std::make_unique<net::LogNormalLatency>(sim::millis(80),
                                                              0.4),
                      net_config(kNodes));
    sim::Rng rng = simu.rng().fork(0x9C0E);

    chain::ChainParams params = chain::ChainParams::ethereum();
    params.retarget_window = 0;
    params.initial_difficulty = 13e6;
    const double per_miner = 13e6 / 13.0 / static_cast<double>(kMiners);

    std::vector<chain::Wallet> wallets;
    std::vector<std::pair<crypto::PublicKey, chain::Amount>> premine;
    for (std::size_t i = 0; i < kWallets; ++i) {
      wallets.push_back(chain::Wallet::from_seed(o.seed * 1000003 + i));
      for (std::size_t k = 0; k < kOutputsPerWallet; ++k) {
        premine.emplace_back(wallets.back().address(),
                             chain::Amount{1'000'000});
      }
    }
    const chain::BlockPtr genesis =
        chain::make_genesis_multi(premine, params.initial_difficulty);

    std::vector<net::NodeId> addrs;
    for (std::size_t i = 0; i < kNodes; ++i) {
      addrs.push_back(netw.new_node_id());
    }
    const std::uint64_t n0 = now_ns();
    std::vector<std::unique_ptr<chain::FullNode>> nodes;
    for (std::size_t i = 0; i < kNodes; ++i) {
      nodes.push_back(
          std::make_unique<chain::FullNode>(netw, addrs[i], params, genesis));
    }
    nodes_ns = now_ns() - n0;
    const net::AdjacencyList adj =
        net::TopologySpec{.kind = net::TopologySpec::Kind::Random,
                          .nodes = kNodes,
                          .degree = 6}
            .build(rng);
    for (std::size_t i = 0; i < kNodes; ++i) {
      std::vector<net::NodeId> neighbors;
      for (const std::size_t j : adj[i]) neighbors.push_back(addrs[j]);
      nodes[i]->connect(std::move(neighbors));
    }
    std::vector<std::unique_ptr<TimedHost<chain::FullNode>>> proxies;
    if (o.traced) {
      for (auto& n : nodes) {
        proxies.push_back(
            std::make_unique<TimedHost<chain::FullNode>>(*n, rec, classify));
        proxies.back()->attach(netw);
      }
    }
    std::vector<std::unique_ptr<chain::Miner>> miners;
    for (std::size_t i = 0; i < kMiners; ++i) {
      const chain::Wallet payout =
          chain::Wallet::from_seed(o.seed * 2000003 + i);
      miners.push_back(std::make_unique<chain::Miner>(
          *nodes[i], payout.address(), per_miner));
      miners.back()->start();
    }

    // Open-loop payment schedule, drawn from the seed before the first
    // event: arrival times, payer, payee. Each wallet's home node is fixed.
    sim::Rng load(o.seed ^ 0x9A7E5EEDull);
    std::vector<std::size_t> home(kWallets);
    for (auto& h : home) h = load.uniform_int(kNodes);
    struct Payment {
      sim::SimTime at;
      std::size_t from, to;
    };
    std::vector<Payment> schedule;
    sim::SimTime t = sim::seconds(1);
    for (std::size_t i = 0; i < payments; ++i) {
      t += sim::seconds(load.exponential(kTxPerSec));
      const std::size_t from = load.uniform_int(kWallets);
      std::size_t to = load.uniform_int(kWallets);
      if (to == from) to = (to + 1) % kWallets;
      schedule.push_back({t, from, to});
    }

    std::vector<chain::TxId> accepted;
    std::vector<chain::Transaction> sample_txs;
    std::vector<const chain::Wallet*> sample_payers;
    std::uint64_t nonce = 0;
    std::size_t next = 0;
    std::function<void()> pay_next = [&] {
      const Payment& p = schedule[next];
      chain::FullNode& gateway = *nodes[home[p.from]];
      for (std::size_t attempt = 0; attempt < kPayAttempts; ++attempt) {
        const std::uint64_t t0 = o.traced ? now_ns() : 0;
        auto tx = wallets[p.from].pay(gateway.utxo(), wallets[p.to].address(),
                                      1000, 10, ++nonce, &rng);
        if (o.traced) pay_ns.add(now_ns() - t0);
        if (!tx) break;
        const std::uint64_t t1 = o.traced ? now_ns() : 0;
        const bool ok = gateway.submit_transaction(*tx);
        if (o.traced) submit_ns.add(now_ns() - t1);
        if (ok) {
          accepted.push_back(tx->id());
          if (o.traced && sample_txs.size() < kCryptoSampleTxs) {
            sample_txs.push_back(*tx);
            sample_payers.push_back(&wallets[p.from]);
          }
          break;
        }
      }
      if (++next < schedule.size()) {
        simu.post_at(schedule[next].at, [&] { pay_next(); });
      }
    };
    if (!schedule.empty()) simu.post_at(schedule[0].at, [&] { pay_next(); });

    ph.run_begin = now_ns();
    simu.run_until(horizon);
    ph.run_end = now_ns();

    const std::uint64_t c0 = now_ns();
    rep.events = simu.total_events_processed();
    chain::FullNode& observer = *nodes.back();  // never mines
    std::vector<std::vector<chain::BlockId>> chains;
    for (const auto& n : nodes) {
      std::vector<chain::BlockId> ids;
      for (const auto& b : n->tree().active_chain()) ids.push_back(b->id());
      chains.push_back(std::move(ids));
    }
    // Safety: no two nodes disagree on a block buried kBuriedDepth deep.
    for (std::size_t a = 0; a < kNodes; ++a) {
      for (std::size_t b = a + 1; b < kNodes; ++b) {
        const std::size_t tip =
            std::min(chains[a].size(), chains[b].size()) - 1;
        if (tip < kBuriedDepth) continue;
        if (chains[a][tip - kBuriedDepth] != chains[b][tip - kBuriedDepth]) {
          rep.violations.push_back("nodes " + std::to_string(a) + " and " +
                                   std::to_string(b) +
                                   " disagree on a buried block");
        }
      }
    }
    const std::vector<chain::BlockPtr> active = observer.tree().active_chain();
    std::unordered_set<chain::TxId, crypto::Hash256Hasher> confirmed;
    for (const auto& b : active) {
      for (std::size_t i = 1; i < b->txs.size(); ++i) {
        confirmed.insert(b->txs[i].id());
      }
    }
    if (observer.confirmed_tx_count() > accepted.size()) {
      rep.violations.push_back("more transactions confirmed than submitted");
    }
    std::uint64_t done = 0;
    for (const auto& id : accepted) done += confirmed.count(id);
    rep.ops = schedule.size();
    rep.ops_failed = rep.ops - done;

    Digest d;
    for (const auto& n : nodes) {
      d.hash(n->tree().best_tip());
      d.u64(n->tree().best_height());
      d.u64(n->stats().blocks_accepted);
      d.u64(n->stats().txs_accepted);
      d.u64(n->stats().txs_rejected);
      d.u64(n->stats().reorgs);
      d.u64(n->mempool().size());
    }
    for (const auto& id : accepted) d.hash(id);
    d.u64(observer.confirmed_tx_count());
    d.u64(observer.tree().stale_count());
    d.u64(netw.messages_sent());
    d.u64(done);
    rep.digest = d.hex();
    rep.stat("payments", static_cast<double>(rep.ops));
    rep.stat("accepted", static_cast<double>(accepted.size()));
    rep.stat("confirmed", static_cast<double>(done));
    rep.stat("height", static_cast<double>(observer.tree().best_height()));
    rep.stat("stale", static_cast<double>(observer.tree().stale_count()));
    rep.stat("messages", static_cast<double>(netw.messages_sent()));

    if (o.traced) {
      add_net_layer(rep, prof, netw,
                    counter_value(netw.metrics(), "net/dropped_offline"),
                    recs);
      rep.percentiles("chain.wallet_pay", pay_ns, "us", 1e3);
      rep.percentiles("chain.submit_tx", submit_ns, "us", 1e3);
      rep.percentiles("chain.tx_msg", rec.by_kind[kTx], "us", 1e3);
      rep.percentiles("chain.block_msg", rec.by_kind[kBlock], "us", 1e3);
      rep.metric("chain.miner_ns", tag_ns_per_event(prof, "miner/find"));
      rep.metric("chain.tx_receipts_per_tx",
                 ratio(static_cast<double>(rec.by_kind[kTx].count()),
                       static_cast<double>(accepted.size())));
      std::vector<chain::BlockPtr> loaded;  // blocks carrying payments
      for (const auto& b : active) {
        if (b->txs.size() > 1) loaded.push_back(b);
      }
      time_crypto(rep, sample_txs, sample_payers, loaded);
      rep.metric("setup.nodes_s", static_cast<double>(nodes_ns) / 1e9);
      rep.metric("setup.wire_s",
                 static_cast<double>(ph.run_begin - ph.start - nodes_ns) / 1e9);
    }
    ph.check_ns = now_ns() - c0;
  }
  ph.finish(rep);
  return rep;
}

}  // namespace decentbench
