// The two open-overlay workloads, both E20 points at N = 100k under
// Weibull-session / exponential-downtime churn:
//
//   kad_lookup      2000 iterative Kademlia lookups on one Simulator.
//                   Request/response RPCs with timeout timers, many of them
//                   cancelled, over a working set far larger than cache.
//   gossip_sharded  4 push-gossip rumors from one origin on a
//                   ShardedKernel (8 shards, half the CPUs and at most two
//                   threads by default). Fan-out of one shared payload with cheap
//                   handlers: the sharded kernel and network delivery at
//                   scale.
#include <memory>
#include <string>

#include "net/churn.hpp"
#include "net/latency.hpp"
#include "overlay/gossip.hpp"
#include "overlay/kademlia.hpp"
#include "probe.hpp"
#include "sim/sharding.hpp"
#include "sim/simulator.hpp"

namespace decentbench {
namespace {

namespace overlay = decentnet::overlay;

net::ChurnConfig scale_churn() {
  net::ChurnConfig churn;
  churn.session = net::DurationDist::weibull(120, 0.6);
  churn.downtime = net::DurationDist::exponential_mean(60);
  churn.initially_online = 1.0;
  return churn;
}

std::unique_ptr<net::LatencyModel> overlay_latency(sim::SimDuration floor) {
  return std::make_unique<net::LogNormalLatency>(sim::millis(80), 0.4, floor);
}

enum KadKind : std::size_t { kFindNode, kReply, kKadOther, kKadKinds };

std::size_t classify_kad(const net::Message& m) {
  if (m.is<overlay::kademlia_msg::FindNode>()) return kFindNode;
  if (m.is<overlay::kademlia_msg::FindNodeReply>()) return kReply;
  return kKadOther;
}

enum GossipKind : std::size_t { kRumor, kShuffle, kGossipOther, kGossipKinds };

std::size_t classify_gossip(const net::Message& m) {
  if (m.is<overlay::gossip_msg::Rumor>()) return kRumor;
  if (m.is<overlay::gossip_msg::ShuffleRequest>() ||
      m.is<overlay::gossip_msg::ShuffleReply>()) {
    return kShuffle;
  }
  return kGossipOther;
}

}  // namespace

Report run_kad_lookup(const Options& o) {
  Report rep;
  Phases ph;
  const std::size_t n = o.small ? 2000 : 100000;
  const std::size_t lookups = o.small ? 200 : 2000;
  const overlay::KademliaConfig kcfg = [] {
    overlay::KademliaConfig c;
    // Bucket refreshes would add an O(N * buckets) lookup storm mid-run;
    // churn already exercises table repair.
    c.refresh_interval = sim::hours(6);
    return c;
  }();

  Samples lookup_ns;
  std::vector<Recorder> recs(1, Recorder(kKadKinds));
  Recorder& rec = recs[0];
  sim::Profiler prof;
  std::uint64_t nodes_ns = 0, warm_ns = 0;
  {
    sim::Simulator simu(o.seed);
    if (o.traced) simu.set_profiler(&prof);
    net::Network netw(simu, overlay_latency(sim::millis(1)),
                      net_config(n));
    std::vector<net::NodeId> addrs(n);
    for (auto& a : addrs) a = netw.new_node_id();

    // Completed lookups with their targets. Declared before the nodes:
    // ~KademliaNode fails still-pending lookups into this buffer.
    std::vector<std::pair<overlay::Key, overlay::LookupResult>> results;
    results.reserve(lookups);

    const std::uint64_t n0 = now_ns();
    std::vector<std::unique_ptr<overlay::KademliaNode>> nodes;
    nodes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(
          std::make_unique<overlay::KademliaNode>(netw, addrs[i], kcfg));
    }
    nodes_ns = now_ns() - n0;

    // Warm routing tables without N join lookups: each node learns its
    // sorted-id neighbours (near buckets) plus random contacts (far ones).
    const std::uint64_t w0 = now_ns();
    std::vector<std::size_t> by_id(n);
    for (std::size_t i = 0; i < n; ++i) by_id[i] = i;
    std::sort(by_id.begin(), by_id.end(), [&](std::size_t a, std::size_t b) {
      return nodes[a]->id() < nodes[b]->id();
    });
    sim::Rng rng(o.seed ^ 0xE20);
    for (std::size_t pos = 0; pos < n; ++pos) {
      const std::size_t i = by_id[pos];
      nodes[i]->join({});
      for (std::size_t d = 1; d <= 8; ++d) {
        const std::size_t lo = by_id[(pos + n - d) % n];
        const std::size_t hi = by_id[(pos + d) % n];
        nodes[i]->observe({nodes[lo]->id(), addrs[lo]});
        nodes[i]->observe({nodes[hi]->id(), addrs[hi]});
      }
      for (std::size_t r = 0; r < 16; ++r) {
        const std::size_t j = rng.uniform_int(n);
        if (j != i) nodes[i]->observe({nodes[j]->id(), addrs[j]});
      }
    }
    warm_ns = now_ns() - w0;

    std::vector<std::unique_ptr<TimedHost<overlay::KademliaNode>>> proxies;
    if (o.traced) {
      proxies.reserve(n);
      for (auto& nd : nodes) {
        proxies.push_back(std::make_unique<TimedHost<overlay::KademliaNode>>(
            *nd, rec, classify_kad));
        proxies.back()->attach(netw);
      }
    }

    // Rejoining peers bootstrap through a contact they still hold, then
    // their proxy goes back in front of them.
    auto go_online = [&](std::size_t i) {
      if (nodes[i]->online()) return;
      nodes[i]->join(nodes[i]->routing_table().empty()
                         ? std::vector<overlay::Contact>{}
                         : std::vector<overlay::Contact>{
                               nodes[i]->routing_table().front()});
      if (o.traced) proxies[i]->attach(netw);
    };
    auto go_offline = [&](std::size_t i) {
      if (nodes[i]->online()) nodes[i]->leave();
    };
    // The first `stable` nodes never churn and issue every lookup: an
    // initiator that left mid-lookup would strand its lookup, which is a
    // property of the schedule, not of the protocol.
    const std::size_t stable = n / 100;
    net::ChurnDriver churn(
        simu, n - stable, scale_churn(),
        [&](std::size_t p) {
          if (!o.traced) return go_online(stable + p);
          const std::uint64_t t0 = now_ns();
          go_online(stable + p);
          rec.churn.add(now_ns() - t0);
        },
        [&](std::size_t p) {
          if (!o.traced) return go_offline(stable + p);
          const std::uint64_t t0 = now_ns();
          go_offline(stable + p);
          rec.churn.add(now_ns() - t0);
        });
    churn.start();

    // Open loop: one lookup every 2.5 ms from 5 s on, from a stable node drawn
    // from the seed before the first event. The horizon leaves the last
    // lookup 50 s: with a third of the population offline a lookup can
    // spend 40 s walking through timed-out contacts.
    sim::Rng pick(o.seed ^ 0x1007C0DEull);
    std::vector<std::size_t> initiator(lookups);
    for (auto& w : initiator) w = pick.uniform_int(stable);
    for (std::size_t q = 0; q < lookups; ++q) {
      const sim::SimTime at = sim::seconds(5) +
                              sim::micros(2500) *
                                  static_cast<sim::SimDuration>(q);
      simu.post(at, [&, q] {
        const std::size_t who = initiator[q];
        const overlay::Key target =
            crypto::sha256("kad-target-" + std::to_string(q));
        auto done = [&results, target](overlay::LookupResult r) {
          results.emplace_back(target, std::move(r));
        };
        if (o.traced) {
          const std::uint64_t t0 = now_ns();
          nodes[who]->lookup(target, std::move(done));
          lookup_ns.add(now_ns() - t0);
        } else {
          nodes[who]->lookup(target, std::move(done));
        }
      });
    }
    const sim::SimTime horizon =
        sim::seconds(55) +
        sim::micros(2500) * static_cast<sim::SimDuration>(lookups);

    ph.run_begin = now_ns();
    simu.run_until(horizon);
    ph.run_end = now_ns();
    churn.stop();

    const std::uint64_t c0 = now_ns();
    rep.events = simu.total_events_processed();
    const std::size_t completed = results.size();
    double rpcs = 0, timeouts = 0, slowest_s = 0;
    Digest d;
    for (std::size_t q = 0; q < completed; ++q) {
      const auto& [target, r] = results[q];
      // Safety: at most k contacts, sorted by XOR distance to the target.
      if (r.closest.size() > kcfg.k) {
        rep.violations.push_back("lookup " + std::to_string(q) +
                                 " returned " +
                                 std::to_string(r.closest.size()) +
                                 " contacts");
      }
      for (std::size_t c = 1; c < r.closest.size(); ++c) {
        if (r.closest[c].id.distance_to(target) <
            r.closest[c - 1].id.distance_to(target)) {
          rep.violations.push_back("lookup " + std::to_string(q) +
                                   " result not sorted by distance");
          break;
        }
      }
      slowest_s = std::max(slowest_s, sim::to_seconds(r.elapsed));
      rpcs += static_cast<double>(r.rpcs_sent);
      timeouts += static_cast<double>(r.timeouts);
      d.hash(target);
      for (const auto& c : r.closest) d.u64(c.addr.value);
      d.u64(r.hops);
      d.u64(r.rpcs_sent);
      d.u64(r.timeouts);
      d.i64(r.elapsed);
    }
    d.u64(churn.online_count());
    d.u64(netw.messages_sent());
    rep.digest = d.hex();
    rep.ops = lookups;
    rep.ops_failed = lookups - completed;
    rep.stat("lookups_completed", static_cast<double>(completed));
    rep.stat("slowest_lookup_s", slowest_s);
    rep.stat("rpcs", rpcs);
    rep.stat("rpc_timeouts", timeouts);
    rep.stat("online_end", static_cast<double>(churn.online_count()));
    rep.stat("messages", static_cast<double>(netw.messages_sent()));

    if (o.traced) {
      add_net_layer(rep, prof, netw,
                    counter_value(netw.metrics(), "net/dropped_offline"),
                    recs);
      rep.percentiles("overlay.kademlia.find_node", rec.by_kind[kFindNode],
                      "ns");
      rep.percentiles("overlay.kademlia.reply", rec.by_kind[kReply], "ns");
      rep.metric("overlay.kademlia.timeout_ns",
                 tag_ns_per_event(prof, "kad/rpc_timeout"));
      rep.metric("overlay.kademlia.rpcs_per_lookup",
                 ratio(rpcs, static_cast<double>(completed)));
      rep.metric("overlay.kademlia.timeout_frac", ratio(timeouts, rpcs));
      rep.metric("overlay.kademlia.lookup_call.p50_ns",
                 lookup_ns.percentile(50));
      rep.metric("overlay.kademlia.warm_s",
                 static_cast<double>(warm_ns) / 1e9);
      rep.metric("setup.nodes_s", static_cast<double>(nodes_ns) / 1e9);
      rep.metric("setup.wire_s",
                 static_cast<double>(ph.run_begin - ph.start - nodes_ns) / 1e9);
    }
    ph.check_ns = now_ns() - c0;
  }
  ph.finish(rep);
  return rep;
}

Report run_gossip_sharded(const Options& o) {
  Report rep;
  Phases ph;
  const std::size_t n = o.small ? 2000 : 100000;
  const std::size_t rumors = o.small ? 2 : 4;
  constexpr std::size_t kShards = 8;
  overlay::GossipConfig gcfg;
  gcfg.view_size = 16;
  gcfg.shuffle_size = 8;
  gcfg.shuffle_interval = sim::seconds(30);
  gcfg.fanout = 6;
  gcfg.message_bytes = 256;

  std::vector<Recorder> recs(kShards, Recorder(kGossipKinds));
  Samples broadcast_ns;
  sim::Profiler prof;
  std::uint64_t nodes_ns = 0;
  {
    sim::ShardedKernel kernel(o.seed, kShards);
    if (o.traced) kernel.set_profiler(&prof);
    // The 20 ms latency floor is the kernel's lookahead window.
    net::Network netw(kernel.shard(0), overlay_latency(sim::millis(20)),
                      net_config(n));
    netw.enable_sharding(kernel);
    std::vector<net::NodeId> addrs(n);
    for (auto& a : addrs) a = netw.new_node_id();
    // The peer table is find-only during parallel windows.
    for (const auto& a : addrs) netw.register_node(a);
    auto shard_of = [&](std::size_t i) {
      return kernel.shard_of(addrs[i].value);
    };

    // First-delivery times bucketed by the receiver's shard (single writer
    // each), and a per-node bitmask of delivered rumors for the
    // exactly-once check. Declared before the nodes whose hooks write here.
    std::vector<std::vector<std::vector<sim::SimTime>>> deliv(
        kShards, std::vector<std::vector<sim::SimTime>>(rumors));
    std::vector<std::uint16_t> seen(n, 0);
    std::vector<std::uint64_t> twice(kShards, 0);

    const std::uint64_t n0 = now_ns();
    std::vector<std::unique_ptr<overlay::GossipNode>> nodes;
    nodes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(
          std::make_unique<overlay::GossipNode>(netw, addrs[i], gcfg));
    }
    nodes_ns = now_ns() - n0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t sh = shard_of(i);
      sim::Simulator* nsim = &netw.simulator_for(addrs[i]);
      nodes[i]->set_deliver_hook([&deliv, &seen, &twice, sh, nsim, i](
                                     overlay::RumorId r, std::size_t) {
            const auto bit = static_cast<std::uint16_t>(1u << r);
            if (seen[i] & bit) ++twice[sh];
            seen[i] |= bit;
            deliv[sh][r].push_back(nsim->now());
          });
    }
    // Half-ring, half-random views: the ring keeps the overlay connected,
    // the random links keep its diameter logarithmic.
    sim::Rng rng(o.seed ^ 0xE20);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<net::NodeId> view;
      for (std::size_t d = 1; d <= gcfg.view_size / 2; ++d) {
        view.push_back(addrs[(i + d) % n]);
      }
      while (view.size() < gcfg.view_size) {
        const std::size_t j = rng.uniform_int(n);
        if (j != i) view.push_back(addrs[j]);
      }
      nodes[i]->join(view);
    }

    std::vector<std::unique_ptr<TimedHost<overlay::GossipNode>>> proxies;
    if (o.traced) {
      proxies.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        proxies.push_back(std::make_unique<TimedHost<overlay::GossipNode>>(
            *nodes[i], recs[shard_of(i)], classify_gossip));
        proxies.back()->attach(netw);
      }
    }

    // Node 0 originates every rumor, so it stays out of the churn population.
    auto go_online = [&](std::size_t i) {
      if (nodes[i]->online()) return;
      std::vector<net::NodeId> view;
      for (std::size_t d = 1; d <= gcfg.view_size / 2; ++d) {
        view.push_back(addrs[(i + d) % n]);
      }
      nodes[i]->join(view);
      if (o.traced) proxies[i]->attach(netw);
    };
    auto go_offline = [&](std::size_t i) {
      if (nodes[i]->online()) nodes[i]->leave();
    };
    net::ChurnDriver churn(
        kernel.shard(0), n - 1, scale_churn(),
        [&](std::size_t p) {
          if (!o.traced) return go_online(p + 1);
          const std::uint64_t t0 = now_ns();
          go_online(p + 1);
          recs[shard_of(p + 1)].churn.add(now_ns() - t0);
        },
        [&](std::size_t p) {
          if (!o.traced) return go_offline(p + 1);
          const std::uint64_t t0 = now_ns();
          go_offline(p + 1);
          recs[shard_of(p + 1)].churn.add(now_ns() - t0);
        });
    churn.set_shard_router([&](std::size_t p) -> sim::Simulator& {
      return netw.simulator_for(addrs[p + 1]);
    });
    churn.start();

    sim::Simulator& origin = netw.simulator_for(addrs[0]);
    for (std::size_t r = 0; r < rumors; ++r) {
      const sim::SimTime at =
          sim::seconds(2) + sim::seconds(3) * static_cast<sim::SimDuration>(r);
      origin.post(at, [&, r] {
        const std::uint64_t t0 = o.traced ? now_ns() : 0;
        nodes[0]->broadcast(static_cast<overlay::RumorId>(r),
                            gcfg.message_bytes);
        if (o.traced) broadcast_ns.add(now_ns() - t0);
      });
    }
    const sim::SimTime horizon =
        sim::seconds(22) +
        sim::seconds(3) * static_cast<sim::SimDuration>(rumors);

    ph.run_begin = now_ns();
    kernel.run_until(horizon, o.threads);
    ph.run_end = now_ns();
    churn.stop();

    const std::uint64_t c0 = now_ns();
    rep.events = kernel.total_events_processed();
    std::uint64_t delivered = 0, duplicates = 0, twice_total = 0;
    Digest d;
    for (std::size_t r = 0; r < rumors; ++r) {
      std::vector<sim::SimTime> times;
      for (std::size_t sh = 0; sh < kShards; ++sh) {
        times.insert(times.end(), deliv[sh][r].begin(), deliv[sh][r].end());
      }
      std::sort(times.begin(), times.end());
      delivered += times.size();
      d.u64(times.size());
      for (const auto t : times) d.i64(t);
    }
    for (const auto& nd : nodes) duplicates += nd->duplicates_received();
    for (const auto t : twice) twice_total += t;
    if (twice_total > 0) {
      rep.violations.push_back(std::to_string(twice_total) +
                               " repeated rumor deliveries");
    }
    d.u64(duplicates);
    d.u64(churn.online_count());
    d.u64(netw.messages_sent());
    rep.digest = d.hex();
    // One op per (rumor, node) first delivery; coverage below 100% under
    // churn is a simulated outcome (it is in the digest), not a failure.
    rep.ops = delivered;
    rep.ops_failed = 0;
    rep.stat("deliveries", static_cast<double>(delivered));
    rep.stat("coverage", ratio(static_cast<double>(delivered),
                               static_cast<double>(n * rumors)));
    rep.stat("duplicates", static_cast<double>(duplicates));
    rep.stat("online_end", static_cast<double>(churn.online_count() + 1));
    rep.stat("messages", static_cast<double>(netw.messages_sent()));

    if (o.traced) {
      sim::MetricRegistry merged;
      kernel.merge_metrics_into(merged);
      Samples rumor_ns, shuffle_ns;
      for (const auto& r : recs) {
        rumor_ns.merge(r.by_kind[kRumor]);
        shuffle_ns.merge(r.by_kind[kShuffle]);
      }
      add_net_layer(rep, prof, netw,
                    counter_value(merged, "net/dropped_offline") +
                        counter_value(netw.metrics(), "net/dropped_offline"),
                    recs);

      const double windows = static_cast<double>(kernel.windows_run());
      std::uint64_t mail_out = 0, fired_max = 0, fired_sum = 0, busy_ns = 0;
      for (std::size_t s = 0; s < kShards; ++s) {
        const std::string p = "sim/shard/" + std::to_string(s);
        mail_out += counter_value(merged, p + "/mail_out");
        const std::uint64_t fired = counter_value(merged, p + "/fired");
        fired_max = std::max(fired_max, fired);
        fired_sum += fired;
        busy_ns += tag_stats(prof, ("shard/" + std::to_string(s)).c_str())
                       .wall_ns;
      }
      const double window_wall_s =
          static_cast<double>(tag_stats(prof, "kernel/windows_wall").wall_ns) /
          1e9;
      const double busy_s = static_cast<double>(busy_ns) / 1e9;
      rep.metric("sim.sharding.windows", windows);
      rep.metric("sim.sharding.events_per_window",
                 ratio(static_cast<double>(rep.events), windows));
      rep.metric("sim.sharding.cross_shard_frac",
                 ratio(static_cast<double>(mail_out),
                       static_cast<double>(netw.messages_sent())));
      rep.metric("sim.sharding.imbalance",
                 ratio(static_cast<double>(fired_max),
                       static_cast<double>(fired_sum) / kShards));
      rep.metric("sim.sharding.window_wall_s", window_wall_s);
      rep.metric(
          "sim.sharding.merge_s",
          static_cast<double>(tag_stats(prof, "kernel/drain").wall_ns) / 1e9);
      rep.metric("sim.sharding.busy_s", busy_s);
      rep.metric("sim.sharding.efficiency",
                 ratio(busy_s, static_cast<double>(o.threads) * window_wall_s));
      rep.percentiles("overlay.gossip.rumor", rumor_ns, "ns");
      rep.percentiles("overlay.gossip.shuffle", shuffle_ns, "ns");
      rep.metric("overlay.gossip.shuffle_timer_ns",
                 tag_ns_per_event(prof, "gossip/shuffle"));
      rep.metric("overlay.gossip.dupes_per_delivery",
                 ratio(static_cast<double>(duplicates),
                       static_cast<double>(delivered)));
      rep.metric("overlay.gossip.broadcast.p50_ns",
                 broadcast_ns.percentile(50));
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
