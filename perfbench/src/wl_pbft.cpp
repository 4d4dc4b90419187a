// pbft_commit: E11's PBFT cluster at f = 8 (25 replicas), batches of 16,
// one client submitting 500 commands/s (Poisson) over a 5 ms constant-
// latency network. Many small handlers on a cache-resident cluster, so the
// per-delivery kernel and network overhead dominates. A fixed count of
// commands (about six simulated seconds of load) leaves two seconds before
// the horizon for the last ones to commit.
#include <functional>
#include <memory>

#include "bft/pbft.hpp"
#include "net/latency.hpp"
#include "probe.hpp"
#include "sim/simulator.hpp"

namespace decentbench {
namespace {

namespace bft = decentnet::bft;
namespace msg = decentnet::bft::pbft_msg;

constexpr std::size_t kF = 8;
constexpr std::size_t kReplicas = 3 * kF + 1;
constexpr double kCommandsPerSec = 500.0;
constexpr std::size_t kCommands = 3000;  // six seconds at kCommandsPerSec

enum Kind : std::size_t {
  kPrePrepare,
  kPrepare,
  kCommit,
  kReply,
  kOther,
  kKinds
};

std::size_t classify(const net::Message& m) {
  if (m.is<msg::PrePrepare>()) return kPrePrepare;
  if (m.is<msg::Prepare>()) return kPrepare;
  if (m.is<msg::Commit>()) return kCommit;
  if (m.is<msg::Reply>()) return kReply;
  return kOther;
}

}  // namespace

Report run_pbft_commit(const Options& o) {
  Report rep;
  Phases ph;
  const sim::SimTime horizon = o.small ? sim::seconds(3) : sim::seconds(8);
  const std::size_t commands = o.small ? 500 : kCommands;

  Samples submit_ns;
  std::vector<Recorder> recs(1, Recorder(kKinds));
  Recorder& rec = recs[0];
  sim::Profiler prof;
  std::uint64_t nodes_ns = 0;
  {
    sim::Simulator simu(o.seed);
    if (o.traced) simu.set_profiler(&prof);
    net::Network netw(simu,
                      std::make_unique<net::ConstantLatency>(sim::millis(5)),
                      net_config(kReplicas + 1));
    bft::PbftConfig cfg;
    cfg.f = kF;
    cfg.batch_size = 16;

    std::vector<net::NodeId> addrs;
    for (std::size_t i = 0; i < kReplicas; ++i) {
      addrs.push_back(netw.new_node_id());
    }
    // Executed (client, command id) sequence per replica, for the agreement
    // check. Declared before the replicas, whose hooks write here.
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> executed(
        kReplicas);
    std::vector<std::uint64_t> latency_us;
    const std::uint64_t n0 = now_ns();
    std::vector<std::unique_ptr<bft::PbftReplica>> replicas;
    for (std::size_t i = 0; i < kReplicas; ++i) {
      replicas.push_back(
          std::make_unique<bft::PbftReplica>(netw, addrs[i], i, cfg));
    }
    bft::PbftClient client(netw, netw.new_node_id(), 1, cfg);
    nodes_ns = now_ns() - n0;
    for (std::size_t i = 0; i < kReplicas; ++i) {
      replicas[i]->set_group(addrs);
      replicas[i]->set_commit_hook(
          [&executed, i](std::uint64_t, const bft::Command& cmd) {
            executed[i].emplace_back(cmd.client, cmd.id);
          });
    }
    client.set_group(addrs);
    client.set_done_hook([&](const bft::Command&, sim::SimDuration l) {
      latency_us.push_back(static_cast<std::uint64_t>(l));
    });
    // No replica crashes in this workload, so nothing re-attaches itself
    // after the proxies go in front (the traced pass checks that every
    // delivery went through a proxy).
    std::vector<std::unique_ptr<TimedHost<bft::PbftReplica>>> proxies;
    TimedHost<bft::PbftClient> client_proxy(client, rec, classify);
    if (o.traced) {
      for (auto& r : replicas) {
        proxies.push_back(
            std::make_unique<TimedHost<bft::PbftReplica>>(*r, rec, classify));
        proxies.back()->attach(netw);
      }
      client_proxy.attach(netw);
    }

    // Open-loop command schedule drawn from the seed before the first event.
    sim::Rng load(o.seed ^ 0xB5F7C0DEull);
    std::vector<sim::SimTime> schedule;
    sim::SimTime t = sim::millis(10);
    for (std::size_t i = 0; i < commands; ++i) {
      t += sim::seconds(load.exponential(kCommandsPerSec));
      schedule.push_back(t);
    }
    std::size_t next = 0;
    std::function<void()> submit_next = [&] {
      if (o.traced) {
        const std::uint64_t t0 = now_ns();
        client.submit("op", 128);
        submit_ns.add(now_ns() - t0);
      } else {
        client.submit("op", 128);
      }
      if (++next < schedule.size()) {
        simu.post_at(schedule[next], [&] { submit_next(); });
      }
    };
    if (!schedule.empty()) simu.post_at(schedule[0], [&] { submit_next(); });

    ph.run_begin = now_ns();
    simu.run_until(horizon);
    ph.run_end = now_ns();

    const std::uint64_t c0 = now_ns();
    rep.events = simu.total_events_processed();
    // Safety: executed sequences agree on their common prefix.
    std::size_t longest = 0;
    for (std::size_t i = 1; i < kReplicas; ++i) {
      if (executed[i].size() > executed[longest].size()) longest = i;
    }
    for (std::size_t i = 0; i < kReplicas; ++i) {
      const auto& mine = executed[i];
      if (!std::equal(mine.begin(), mine.end(), executed[longest].begin())) {
        rep.violations.push_back("replica " + std::to_string(i) +
                                 " diverges from replica " +
                                 std::to_string(longest));
      }
    }
    rep.ops = schedule.size();
    rep.ops_failed = rep.ops - client.completed();

    Digest d;
    for (const auto& r : replicas) {
      d.u64(r->view());
      d.u64(r->executed_count());
    }
    for (const auto& [client_id, cmd] : executed[longest]) {
      d.u64(client_id);
      d.u64(cmd);
    }
    for (const std::uint64_t l : latency_us) d.u64(l);
    d.u64(client.completed());
    d.u64(netw.messages_sent());
    rep.digest = d.hex();
    rep.stat("commands", static_cast<double>(rep.ops));
    rep.stat("completed", static_cast<double>(client.completed()));
    rep.stat("messages", static_cast<double>(netw.messages_sent()));

    if (o.traced) {
      add_net_layer(rep, prof, netw,
                    counter_value(netw.metrics(), "net/dropped_offline"),
                    recs);
      rep.percentiles("bft.pre_prepare", rec.by_kind[kPrePrepare], "ns");
      rep.percentiles("bft.prepare", rec.by_kind[kPrepare], "ns");
      rep.percentiles("bft.commit", rec.by_kind[kCommit], "ns");
      rep.percentiles("bft.reply", rec.by_kind[kReply], "ns");
      rep.metric("bft.submit.p50_ns", submit_ns.percentile(50));
      rep.metric("bft.batch_timer_ns", tag_ns_per_event(prof, "pbft/batch"));
      rep.metric("bft.msgs_per_commit",
                 ratio(static_cast<double>(netw.messages_sent()),
                       static_cast<double>(client.completed())));
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
