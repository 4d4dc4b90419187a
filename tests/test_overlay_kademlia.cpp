// Kademlia tests: joins populate routing tables, iterative lookups converge
// to the globally closest nodes, store/find_value round-trips, bucket
// eviction prefers live long-lived contacts, and offline nodes surface as
// timeouts rather than hangs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "overlay/kademlia.hpp"

namespace dn = decentnet::net;
namespace ds = decentnet::sim;
namespace ov = decentnet::overlay;

namespace {

struct KadNet {
  ds::Simulator sim{12345};
  dn::Network net{sim, std::make_unique<dn::ConstantLatency>(ds::millis(20))};
  ov::KademliaConfig config;
  std::vector<std::unique_ptr<ov::KademliaNode>> nodes;

  explicit KadNet(std::size_t n, ov::KademliaConfig cfg = {}) : config(cfg) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<ov::KademliaNode>(
          net, net.new_node_id(), config));
    }
    // Join sequentially through node 0.
    nodes[0]->join({});
    for (std::size_t i = 1; i < n; ++i) {
      nodes[i]->join({{nodes[0]->id(), nodes[0]->addr()}});
      sim.run_until(sim.now() + ds::seconds(2));
    }
    sim.run_until(sim.now() + ds::seconds(10));
  }

  /// Ground truth: the k closest online node ids to `target`.
  std::vector<ov::Key> true_closest(const ov::Key& target,
                                    std::size_t k) const {
    std::vector<ov::Key> ids;
    for (const auto& n : nodes) {
      if (n->online()) ids.push_back(n->id());
    }
    std::sort(ids.begin(), ids.end(), [&](const ov::Key& a, const ov::Key& b) {
      return a.distance_to(target) < b.distance_to(target);
    });
    if (ids.size() > k) ids.resize(k);
    return ids;
  }
};

}  // namespace

TEST(Kademlia, JoinPopulatesRoutingTables) {
  KadNet kad(30);
  for (const auto& n : kad.nodes) {
    EXPECT_GE(n->routing_table_size(), 5u) << "node has too few contacts";
  }
}

TEST(Kademlia, LookupFindsGloballyClosestNodes) {
  KadNet kad(40);
  const ov::Key target = decentnet::crypto::sha256("some random target");
  bool done = false;
  ov::LookupResult result;
  kad.nodes[7]->lookup(target, [&](ov::LookupResult r) {
    done = true;
    result = std::move(r);
  });
  kad.sim.run_until(kad.sim.now() + ds::minutes(1));
  ASSERT_TRUE(done);
  ASSERT_FALSE(result.closest.empty());
  // The best discovered contact must be the true global best (or within the
  // true top-k, allowing for routing-table staleness at this small scale).
  const auto truth = kad.true_closest(target, kad.config.k);
  EXPECT_EQ(result.closest.front().id, truth.front());
}

TEST(Kademlia, StoreThenFindValueFromAnyNode) {
  KadNet kad(25);
  const ov::Key key = decentnet::crypto::sha256("the-key");
  bool stored = false;
  kad.nodes[3]->store(key, "the-value", [&](std::size_t replicas) {
    stored = true;
    EXPECT_GT(replicas, 0u);
  });
  kad.sim.run_until(kad.sim.now() + ds::minutes(1));
  ASSERT_TRUE(stored);
  // Retrieve from a different node.
  bool found = false;
  kad.nodes[17]->find_value(key, [&](ov::LookupResult r) {
    found = r.found_value;
    if (r.found_value) {
      EXPECT_EQ(*r.value, "the-value");
    }
  });
  kad.sim.run_until(kad.sim.now() + ds::minutes(1));
  EXPECT_TRUE(found);
}

TEST(Kademlia, FindValueMissesForUnknownKey) {
  KadNet kad(15);
  bool done = false;
  kad.nodes[2]->find_value(decentnet::crypto::sha256("never stored"),
                           [&](ov::LookupResult r) {
                             done = true;
                             EXPECT_FALSE(r.found_value);
                           });
  kad.sim.run_until(kad.sim.now() + ds::minutes(1));
  EXPECT_TRUE(done);
}

TEST(Kademlia, DeadContactsCauseTimeoutsNotHangs) {
  KadNet kad(30);
  // Kill half the network abruptly (no graceful leave).
  for (std::size_t i = 15; i < 30; ++i) kad.nodes[i]->leave();
  bool done = false;
  ov::LookupResult result;
  kad.nodes[1]->lookup(decentnet::crypto::sha256("target-after-crash"),
                       [&](ov::LookupResult r) {
                         done = true;
                         result = std::move(r);
                       });
  kad.sim.run_until(kad.sim.now() + ds::minutes(5));
  ASSERT_TRUE(done);
  EXPECT_GT(result.timeouts, 0u) << "lookup should have hit dead contacts";
}

TEST(Kademlia, LookupLatencyGrowsWithDeadFraction) {
  // The E1 mechanism in miniature: more dead contacts => slower lookups.
  auto run = [](double dead_fraction) {
    KadNet kad(40);
    ds::Rng rng(7);
    for (auto& n : kad.nodes) {
      if (rng.chance(dead_fraction)) n->leave();
    }
    double total_ms = 0;
    int completed = 0;
    for (int q = 0; q < 10; ++q) {
      ov::KademliaNode* src = nullptr;
      for (auto& n : kad.nodes) {
        if (n->online()) {
          src = n.get();
          break;
        }
      }
      bool done = false;
      src->lookup(decentnet::crypto::sha256("q" + std::to_string(q)),
                  [&](ov::LookupResult r) {
                    done = true;
                    total_ms += ds::to_millis(r.elapsed);
                  });
      kad.sim.run_until(kad.sim.now() + ds::minutes(2));
      if (done) ++completed;
    }
    return completed > 0 ? total_ms / completed : 1e18;
  };
  const double fresh = run(0.0);
  const double stale = run(0.4);
  EXPECT_GT(stale, fresh * 2) << "dead contacts should slow lookups markedly";
}

TEST(Kademlia, ObserveInsertsContact) {
  KadNet kad(5);
  ov::Contact fake{decentnet::crypto::sha256("fake-id"), dn::NodeId{9999}};
  const std::size_t before = kad.nodes[0]->routing_table_size();
  kad.nodes[0]->observe(fake);
  EXPECT_EQ(kad.nodes[0]->routing_table_size(), before + 1);
}

TEST(Kademlia, SelfIsNeverInRoutingTable) {
  KadNet kad(10);
  for (const auto& n : kad.nodes) {
    for (const auto& c : n->routing_table()) {
      EXPECT_NE(c.addr, n->addr());
    }
  }
}

TEST(Kademlia, BucketsBoundedByK) {
  ov::KademliaConfig cfg;
  cfg.k = 4;
  KadNet kad(50, cfg);
  for (const auto& n : kad.nodes) {
    // No bucket may exceed k; total table is at most 256*k but in a 50-node
    // network the far bucket dominates; just assert the far bucket cap via
    // the contact count per distance class.
    std::map<int, int> per_bucket;
    for (const auto& c : n->routing_table()) {
      const int lz = n->id().distance_to(c.id).leading_zero_bits();
      ++per_bucket[255 - lz];
    }
    for (const auto& [bucket, count] : per_bucket) {
      EXPECT_LE(count, 4) << "bucket " << bucket << " exceeds k";
    }
  }
}

TEST(Kademlia, RejoinAfterLeaveWorks) {
  KadNet kad(20);
  kad.nodes[5]->leave();
  kad.sim.run_until(kad.sim.now() + ds::seconds(30));
  kad.nodes[5]->join({{kad.nodes[0]->id(), kad.nodes[0]->addr()}});
  kad.sim.run_until(kad.sim.now() + ds::seconds(30));
  EXPECT_TRUE(kad.nodes[5]->online());
  EXPECT_GE(kad.nodes[5]->routing_table_size(), 3u);
}

namespace {

std::uint8_t bit_mask(int bit) {
  return static_cast<std::uint8_t>(1u << (7 - bit % 8));
}

/// A random id in bucket `j` of `self`'s table: it shares the top (255 - j)
/// bits with `self`, differs at the next one, and is random below it.
ov::Key id_in_bucket(const ov::Key& self, int j, ds::Rng& rng) {
  ov::Key k = self;
  const int flip = 255 - j;  // bit position, 0 = most significant
  for (int b = flip + 1; b < 256; ++b) {
    if (rng.next() & 1) k.bytes[b / 8] ^= bit_mask(b);
  }
  k.bytes[flip / 8] ^= bit_mask(flip);
  return k;
}

/// A raw host that sends FIND_NODE requests and records the replies.
struct FindNodeProbe final : dn::Host {
  dn::Network& net;
  dn::NodeId addr;
  ov::Contact self;
  std::vector<ov::Contact> reply;
  bool answered = false;

  explicit FindNodeProbe(dn::Network& n)
      : net(n),
        addr(n.new_node_id()),
        self{decentnet::crypto::sha256("find-node-probe"), addr} {
    net.attach(addr, this);
  }

  void handle_message(const dn::Message& msg) override {
    if (!msg.is<ov::kademlia_msg::FindNodeReply>()) return;
    reply = dn::payload_as<ov::kademlia_msg::FindNodeReply>(msg).contacts;
    answered = true;
  }

  /// FIND_NODE(target) to `node`; the reply lands in `reply`.
  void ask(ds::Simulator& sim, const ov::KademliaNode& node,
           const ov::Key& target) {
    answered = false;
    net.send(addr, node.addr(),
             ov::kademlia_msg::FindNode{target, self, /*want_value=*/false},
             120, /*cookie=*/1);
    sim.run_until(sim.now() + ds::millis(100));
  }
};

/// What a FIND_NODE reply must hold: the node's whole table sorted by XOR
/// distance to `target`, cut to k, then without the requester (so a
/// requester among the k closest gets k - 1 back).
std::vector<ov::Contact> brute_force_closest(const ov::KademliaNode& node,
                                             const ov::Key& target,
                                             dn::NodeId requester,
                                             std::size_t k) {
  std::vector<ov::Contact> all = node.routing_table();
  std::sort(all.begin(), all.end(),
            [&](const ov::Contact& a, const ov::Contact& b) {
              return a.id.distance_to(target) < b.id.distance_to(target);
            });
  if (all.size() > k) all.resize(k);
  std::erase_if(all, [&](const ov::Contact& c) { return c.addr == requester; });
  return all;
}

void expect_reply_is_closest(FindNodeProbe& probe, ds::Simulator& sim,
                             const ov::KademliaNode& node,
                             const ov::Key& target, std::size_t k) {
  probe.ask(sim, node, target);
  ASSERT_TRUE(probe.answered);
  const auto want = brute_force_closest(node, target, probe.addr, k);
  ASSERT_EQ(probe.reply.size(), want.size())
      << "target " << target.short_hex();
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(probe.reply[i].addr, want[i].addr) << "rank " << i;
    EXPECT_EQ(probe.reply[i].id, want[i].id) << "rank " << i;
  }
}

int contacts_in_bucket(const ov::KademliaNode& node, int j) {
  int n = 0;
  for (const auto& c : node.routing_table()) {
    if (255 - node.id().distance_to(c.id).leading_zero_bits() == j) ++n;
  }
  return n;
}

}  // namespace

// FIND_NODE replies walk the k-buckets outward from the target's bucket
// rather than sorting the whole table; the answer must still be exactly the
// brute-force XOR top-k.
TEST(Kademlia, FindNodeReplyIsBruteForceClosest) {
  ds::Simulator sim{7};
  dn::Network net{sim, std::make_unique<dn::ConstantLatency>(ds::millis(5))};
  ov::KademliaConfig cfg;
  // Overflowing buckets drop their oldest contact at once: no eviction
  // pings whose timeouts would reshape the table between asks.
  cfg.naive_eviction = true;
  ov::KademliaNode node(net, net.new_node_id(), cfg);
  node.join({});
  ds::Rng rng(99);
  // Hand-filled table: full far buckets, partial middle ones, bucket 230
  // held below k and bucket 220 left empty on purpose.
  for (int j = 200; j < 256; ++j) {
    if (j == 220) continue;
    const std::size_t n = j == 230 ? 3 : rng.next() % (cfg.k + 4);
    for (std::size_t i = 0; i < n; ++i) {
      node.observe({id_in_bucket(node.id(), j, rng), net.new_node_id()});
    }
  }
  FindNodeProbe probe(net);
  // Let the probe's own first contact settle into the table.
  probe.ask(sim, node, node.id());
  ASSERT_EQ(contacts_in_bucket(node, 220), 0);
  ASSERT_EQ(contacts_in_bucket(node, 230), 3);
  ASSERT_GT(node.routing_table_size(), cfg.k);

  for (int i = 0; i < 64; ++i) {
    ov::Key target;
    for (auto& b : target.bytes) b = static_cast<std::uint8_t>(rng.next());
    expect_reply_is_closest(probe, sim, node, target, cfg.k);
  }
  expect_reply_is_closest(probe, sim, node, node.id(), cfg.k);
  expect_reply_is_closest(probe, sim, node, id_in_bucket(node.id(), 220, rng),
                          cfg.k);
  expect_reply_is_closest(probe, sim, node, id_in_bucket(node.id(), 230, rng),
                          cfg.k);
  // Targets deep below every populated bucket: the answer is the nearest
  // buckets' union.
  expect_reply_is_closest(probe, sim, node, id_in_bucket(node.id(), 3, rng),
                          cfg.k);
}

TEST(Kademlia, FindNodeReplyFromTableSmallerThanK) {
  ds::Simulator sim{8};
  dn::Network net{sim, std::make_unique<dn::ConstantLatency>(ds::millis(5))};
  ov::KademliaConfig cfg;
  ov::KademliaNode node(net, net.new_node_id(), cfg);
  node.join({});
  ds::Rng rng(5);
  for (int j : {255, 240, 240}) {
    node.observe({id_in_bucket(node.id(), j, rng), net.new_node_id()});
  }
  FindNodeProbe probe(net);
  probe.ask(sim, node, node.id());
  ASSERT_LT(node.routing_table_size(), cfg.k);
  for (int i = 0; i < 16; ++i) {
    ov::Key target;
    for (auto& b : target.bytes) b = static_cast<std::uint8_t>(rng.next());
    expect_reply_is_closest(probe, sim, node, target, cfg.k);
  }
  expect_reply_is_closest(probe, sim, node, node.id(), cfg.k);
  EXPECT_EQ(probe.reply.size(), node.routing_table_size() - 1);
}
