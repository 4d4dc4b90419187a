// Workload catalogs, free riding (Gnutella + BitTorrent tit-for-tat), and
// the sybil attack on Kademlia.
#include <gtest/gtest.h>

#include <memory>

#include "net/topology.hpp"
#include "overlay/kademlia.hpp"
#include "p2p/bittorrent.hpp"
#include "p2p/sybil.hpp"
#include "p2p/workload.hpp"

namespace dp = decentnet::p2p;
namespace dn = decentnet::net;
namespace ds = decentnet::sim;
namespace ov = decentnet::overlay;

// --- Workload ---------------------------------------------------------------

TEST(Workload, PlanRespectsFreeRiderFraction) {
  ds::Rng rng(1);
  dp::ContentCatalog catalog({}, rng);
  const auto plan = dp::plan_population(catalog, 1000, 0.7, rng);
  EXPECT_NEAR(static_cast<double>(plan.free_riders), 700.0, 60.0);
  std::size_t sharers = 0;
  for (const auto& items : plan.shared) {
    if (!items.empty()) ++sharers;
  }
  EXPECT_EQ(sharers + plan.free_riders, 1000u);
}

TEST(Workload, QueriesFollowZipf) {
  ds::Rng rng(2);
  dp::CatalogConfig cfg;
  cfg.items = 100;
  dp::ContentCatalog catalog(cfg, rng);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[catalog.sample_query(rng)];
  }
  EXPECT_GT(counts[0], counts[50]);
}

// --- BitTorrent tit-for-tat ---------------------------------------------------

TEST(Swarm, ContributorsFinish) {
  ds::Simulator sim(1);
  dp::SwarmConfig cfg;
  cfg.pieces = 32;
  cfg.piece_bytes = 64 * 1024;
  dp::Swarm swarm(sim, cfg, /*seeds=*/2, /*leechers=*/20, /*free_riders=*/0);
  swarm.start();
  sim.run_until(ds::hours(2));
  EXPECT_GT(swarm.finished_fraction(false, sim.now()), 0.9);
}

TEST(Swarm, TitForTatPunishesFreeRiders) {
  auto run = [](bool tft) {
    ds::Simulator sim(7);
    dp::SwarmConfig cfg;
    cfg.pieces = 64;
    cfg.piece_bytes = 64 * 1024;
    cfg.tit_for_tat = tft;
    // Scarce seed capacity: the swarm must feed itself, so reciprocation
    // (or its absence) decides who gets served.
    cfg.seed_upload_bps = 1e6 / 8;
    cfg.peer_upload_bps = 2e6 / 8;
    dp::Swarm swarm(sim, cfg, /*seeds=*/1, /*leechers=*/16,
                    /*free_riders=*/4);
    swarm.start();
    sim.run_until(ds::hours(2));
    return std::make_pair(swarm.median_finish_time(false),
                          swarm.median_finish_time(true));
  };
  const auto [tft_contrib, tft_rider] = run(true);
  ASSERT_GT(tft_contrib, 0) << "contributors must finish under TFT";
  ASSERT_GT(tft_rider, 0);
  // Free riders finish later than contributors (they still finish — once
  // contributors complete, their idle capacity serves whoever is left,
  // which matches measured swarm behaviour).
  EXPECT_GT(tft_rider, tft_contrib);
  const auto [rnd_contrib, rnd_rider] = run(false);
  ASSERT_GT(rnd_contrib, 0);
  ASSERT_GT(rnd_rider, 0);
  // Without incentives the free-rider penalty largely disappears.
  const double tft_penalty = static_cast<double>(tft_rider) /
                             static_cast<double>(tft_contrib);
  const double rnd_penalty = static_cast<double>(rnd_rider) /
                             static_cast<double>(rnd_contrib);
  EXPECT_GT(tft_penalty, rnd_penalty);
  EXPECT_GT(tft_penalty, 1.05);
}

TEST(Swarm, FreeRidersUploadNothing) {
  ds::Simulator sim(3);
  dp::SwarmConfig cfg;
  cfg.pieces = 16;
  dp::Swarm swarm(sim, cfg, 1, 8, 3);
  swarm.start();
  sim.run_until(ds::hours(1));
  for (const auto& s : swarm.stats()) {
    if (s.free_rider) {
      EXPECT_EQ(s.bytes_uploaded, 0u);
    }
  }
}

TEST(Swarm, StatsAccountingConsistent) {
  ds::Simulator sim(4);
  dp::SwarmConfig cfg;
  cfg.pieces = 16;
  dp::Swarm swarm(sim, cfg, 1, 6, 0);
  swarm.start();
  sim.run_until(ds::hours(1));
  std::uint64_t up = 0, down = 0;
  for (const auto& s : swarm.stats()) {
    up += s.bytes_uploaded;
    down += s.bytes_downloaded;
  }
  EXPECT_EQ(up, down);
  EXPECT_GT(up, 0u);
}

// --- Sybil attack -------------------------------------------------------------

namespace {

struct SybilFixture {
  ds::Simulator sim{11};
  dn::Network net{sim, std::make_unique<dn::ConstantLatency>(ds::millis(20))};
  ov::KademliaConfig config;
  std::vector<std::unique_ptr<ov::KademliaNode>> honest;

  explicit SybilFixture(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      honest.push_back(std::make_unique<ov::KademliaNode>(
          net, net.new_node_id(), config));
    }
    honest[0]->join({});
    for (std::size_t i = 1; i < n; ++i) {
      honest[i]->join({{honest[0]->id(), honest[0]->addr()}});
      sim.run_until(sim.now() + ds::seconds(1));
    }
    sim.run_until(sim.now() + ds::seconds(10));
  }
};

}  // namespace

TEST(Sybil, IdsLandNextToVictimKey) {
  ds::Rng rng(5);
  const ov::Key victim = decentnet::crypto::sha256("victim");
  for (int i = 0; i < 50; ++i) {
    const ov::Key id = dp::sybil_id_near(victim, 32, rng);
    EXPECT_GE(victim.distance_to(id).leading_zero_bits(), 32);
    EXPECT_NE(id, victim);
  }
}

TEST(Sybil, EclipsesNewStoresAtTargetKey) {
  // The KAD-attack pattern: sybils occupy the id space around the victim
  // key, so STOREs issued after the attack land on attacker nodes (which
  // swallow them) and subsequent lookups come up empty.
  SybilFixture fx(30);
  const ov::Key victim_key = decentnet::crypto::sha256("precious-content");
  dp::SybilConfig scfg;
  scfg.count = 64;
  ds::Rng rng(6);
  dp::SybilAttack attack(fx.net, scfg, victim_key, rng);
  attack.launch();
  std::vector<ov::KademliaNode*> targets;
  for (auto& h : fx.honest) targets.push_back(h.get());
  attack.infiltrate(targets, 4, rng);
  fx.sim.run_until(fx.sim.now() + ds::seconds(10));

  bool stored = false;
  fx.honest[1]->store(victim_key, "data", [&](std::size_t) { stored = true; });
  fx.sim.run_until(fx.sim.now() + ds::minutes(1));
  ASSERT_TRUE(stored);

  int found = 0, tried = 0;
  for (std::size_t i = 2; i < 12; ++i) {
    bool done = false;
    fx.honest[i]->find_value(victim_key, [&](ov::LookupResult r) {
      done = true;
      if (r.found_value) ++found;
    });
    fx.sim.run_until(fx.sim.now() + ds::minutes(1));
    if (done) ++tried;
  }
  EXPECT_EQ(tried, 10);
  EXPECT_LE(found, 3) << "sybil cluster should capture the keyspace region";
  EXPECT_GT(attack.captured_requests(), 0u);
}

TEST(Sybil, PreexistingValuesDegradeButMaySurvive) {
  // Values stored before the attack still sit on honest nodes; the attack
  // degrades discoverability rather than erasing history.
  SybilFixture fx(30);
  const ov::Key key = decentnet::crypto::sha256("old-content");
  bool stored = false;
  fx.honest[1]->store(key, "data", [&](std::size_t) { stored = true; });
  fx.sim.run_until(fx.sim.now() + ds::minutes(1));
  ASSERT_TRUE(stored);
  dp::SybilConfig scfg;
  scfg.count = 64;
  ds::Rng rng(6);
  dp::SybilAttack attack(fx.net, scfg, key, rng);
  attack.launch();
  std::vector<ov::KademliaNode*> targets;
  for (auto& h : fx.honest) targets.push_back(h.get());
  attack.infiltrate(targets, 4, rng);
  int found = 0;
  for (std::size_t i = 2; i < 12; ++i) {
    fx.honest[i]->find_value(key, [&](ov::LookupResult r) {
      if (r.found_value) ++found;
    });
    fx.sim.run_until(fx.sim.now() + ds::minutes(1));
  }
  EXPECT_LT(found, 10) << "attack should at least degrade some lookups";
}

TEST(Sybil, UntargetedSybilsBarelyDisrupt) {
  SybilFixture fx(30);
  const ov::Key key = decentnet::crypto::sha256("other-content");
  bool stored = false;
  fx.honest[1]->store(key, "data", [&](std::size_t) { stored = true; });
  fx.sim.run_until(fx.sim.now() + ds::minutes(1));
  ASSERT_TRUE(stored);
  dp::SybilConfig scfg;
  scfg.count = 16;
  scfg.target_key = false;  // uniformly spread ids
  ds::Rng rng(7);
  dp::SybilAttack attack(fx.net, scfg, key, rng);
  attack.launch();
  std::vector<ov::KademliaNode*> targets;
  for (auto& h : fx.honest) targets.push_back(h.get());
  attack.infiltrate(targets, 1, rng);
  int found = 0;
  for (std::size_t i = 2; i < 10; ++i) {
    fx.honest[i]->find_value(key, [&](ov::LookupResult r) {
      if (r.found_value) ++found;
    });
    fx.sim.run_until(fx.sim.now() + ds::minutes(1));
  }
  EXPECT_GE(found, 5) << "diffuse sybils without key targeting do far less";
}
