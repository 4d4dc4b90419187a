// E11 — Permissioned BFT consensus vs permissionless PoW (§IV).
// "The advent of permissioned blockchains has given new life to research on
// practical solutions to problems like consensus ... [Fabric] avoids costly
// proof-of-work by using different consensus algorithms such as CFT or BFT
// protocols" — BFT commits in milliseconds among tens of known nodes; PoW
// takes minutes among thousands of anonymous ones, and BFT's quadratic
// message cost is why it stays small.
#include <functional>
#include <iterator>
#include <unordered_map>

#include "bench_util.hpp"
#include "core/scenarios.hpp"
#include "core/world.hpp"
#include "sim/metrics.hpp"

using namespace decentnet;

namespace {

constexpr double kOfferedTps = 500;
constexpr sim::SimDuration kMeasure = sim::seconds(30);

/// Offered load: `fire` 10 ms from now, then at exponential gaps of mean
/// 1/kOfferedTps drawn from a stream private to the workload.
class Arrivals {
 public:
  Arrivals(sim::Simulator& simu, std::uint64_t seed,
           std::function<void()> fire)
      : simu_(simu), rng_(seed), fire_(std::move(fire)) {
    simu_.schedule(sim::millis(10), [this] { tick(); });
  }
  Arrivals(const Arrivals&) = delete;
  Arrivals& operator=(const Arrivals&) = delete;

 private:
  void tick() {
    fire_();
    simu_.schedule(sim::seconds(rng_.exponential(kOfferedTps)),
                   [this] { tick(); });
  }

  sim::Simulator& simu_;
  sim::Rng rng_;
  std::function<void()> fire_;
};

/// Run `w` for kMeasure and add its row; `committed` and `lat` are filled by
/// the runner's hooks as the run goes.
void measure(core::World& w, const std::string& system,
             const std::uint64_t& committed, const sim::Histogram& lat,
             sim::PointScope& scope) {
  const auto msgs_before = w.netw.messages_sent();
  w.simu.run_until(w.simu.now() + kMeasure);
  const double msgs_per_commit =
      committed == 0 ? 0
                     : static_cast<double>(w.netw.messages_sent() -
                                           msgs_before) /
                           static_cast<double>(committed);
  scope.add_row(
      {{"system", system},
       {"replicas", std::uint64_t{w.addrs.size()}},
       {"tps", bench::Value(static_cast<double>(committed) /
                                sim::to_seconds(kMeasure),
                            0)},
       {"p50_ms", bench::Value(lat.percentile(50), 1)},
       {"p99_ms", bench::Value(lat.percentile(99), 1)},
       {"msgs_per_commit", bench::Value(msgs_per_commit, 1)}});
}

void run_pbft(std::size_t f, sim::PointScope& scope) {
  core::PbftWorld w(core::env_of(scope), f, /*batch_size=*/16);
  sim::Histogram lat;
  std::uint64_t committed = 0;
  w.client->set_done_hook([&](const bft::Command&, sim::SimDuration l) {
    lat.record(sim::to_millis(l));
    ++committed;
  });
  Arrivals load(w.simu, 3, [&] { w.client->submit("op", 128); });
  measure(w, "PBFT f=" + std::to_string(f), committed, lat, scope);
}

void run_raft(std::size_t n, sim::PointScope& scope) {
  core::ScenarioEnv env = core::env_of(scope);
  env.seed += 1;
  core::RaftWorld w(env, n);
  sim::Histogram lat;
  std::unordered_map<std::uint64_t, sim::SimTime> inflight;
  std::uint64_t committed = 0;
  w.on_commit = [&](std::size_t node, const bft::Command& cmd) {
    if (node != 0) return;
    const auto it = inflight.find(cmd.id);
    if (it == inflight.end()) return;
    lat.record(sim::to_millis(w.simu.now() - it->second));
    inflight.erase(it);
    ++committed;
  };
  w.start();
  w.simu.run_until(sim::seconds(2));
  std::uint64_t next_id = 1;
  Arrivals load(w.simu, 5, [&] {
    bft::RaftNode* const leader = w.leader();
    if (leader == nullptr) return;
    bft::Command cmd;
    cmd.id = next_id++;
    cmd.wire_bytes = 128;
    inflight.emplace(cmd.id, w.simu.now());
    leader->propose(std::move(cmd));
  });
  measure(w, "Raft n=" + std::to_string(n), committed, lat, scope);
}

}  // namespace

int main(int argc, char** argv) {
  bench::ExperimentHarness ex("E11_bft_vs_pow", argc, argv, {.seed = 7});
  ex.describe(
      "E11: permissioned consensus (PBFT/Raft) vs permissionless PoW",
      "BFT among a limited set of authenticated nodes commits in "
      "network-RTT time at thousands of tps; PoW needs minutes and caps at "
      "single-digit tps — but BFT's all-to-all messaging is why "
      "'the number of entities participating in the protocol is limited'",
      "offered load 500 tps, 5 ms LAN; sweep replica count; PoW row "
      "reproduced from E5's Bitcoin-like configuration");

  // 10 independent sweep points (5 PBFT sizes, 4 Raft sizes, 1 PoW); each
  // builds its own Simulator from the root seed, so with --jobs N they run
  // on worker threads and merge in index order — artifact bytes are
  // independent of N.
  const std::size_t kPbftF[] = {1, 2, 3, 5, 8};
  const std::size_t kRaftN[] = {3, 5, 7, 11};
  ex.run_points(std::size(kPbftF) + std::size(kRaftN) + 1,
                [&](sim::PointScope& scope) {
    const std::size_t i = scope.index();
    if (i < std::size(kPbftF)) {
      run_pbft(kPbftF[i], scope);
    } else if (i < std::size(kPbftF) + std::size(kRaftN)) {
      run_raft(kRaftN[i - std::size(kPbftF)], scope);
    } else {
      core::PowScenarioConfig cfg;
      cfg.params.retarget_window = 0;
      cfg.params.initial_difficulty = 1e9;
      cfg.total_hashrate = 1e9 / 600.0;
      cfg.nodes = 24;
      cfg.miners = 8;
      cfg.wallets = 32;
      cfg.tx_rate_per_sec = 10;
      cfg.common.duration = sim::hours(1);
      const auto r = core::run_pow_scenario(cfg, scope);
      scope.add_row({{"system", "PoW (Bitcoin-like)"},
                     {"replicas", 24},
                     {"tps", bench::Value(r.throughput_tps, 1)},
                     {"p50_ms", "~600000"},
                     {"p99_ms", "~3600000"}});
    }
  });
  const int rc = ex.finish();
  ex.print(
      "\nPBFT latency stays at a few RTTs but msgs/commit grows with n^2 —\n"
      "the structural reason permissioned consensus runs among consortium\n"
      "members, not the open Internet. Raft (CFT) is cheaper still when\n"
      "byzantine behaviour is handled by identity/legal trust (the MSP).\n"
      "PoW 'latency' is confirmation depth: ~10 min for one block, ~1 h for\n"
      "the customary six.\n");
  return rc;
}
