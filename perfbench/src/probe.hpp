// Measuring decentnet from outside: wall-clock timers, sample sets, the
// timing Host proxy, the stats digest, and the per-pass report every
// workload fills.
//
// Nothing here reaches into the library's internals. Layers are timed by
// wrapping calls into their public functions: a TimedHost sits in front of a
// protocol node (net::Network::attach) and forwards each delivery to the
// node's public handle_message, and the workloads time the calls they issue
// (Wallet::pay, lookup, broadcast, ...) themselves. The kernel's own
// sim::Profiler, attached through the public set_profiler, supplies per-tag
// timer costs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "crypto/hash.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "sim/profiler.hpp"

namespace decentbench {

namespace crypto = decentnet::crypto;
namespace net = decentnet::net;
namespace sim = decentnet::sim;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// What one invocation of the binary runs.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  bool small = false;        // reduced N / horizon, for the self-test
  std::size_t threads = 1;   // worker threads of the sharded kernel
};

/// Wall-clock samples (ns) of one timed call site.
class Samples {
 public:
  void add(std::uint64_t ns) {
    v_.push_back(ns);
    total_ += ns;
  }
  void merge(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    total_ += o.total_;
  }
  std::size_t count() const { return v_.size(); }
  std::uint64_t total_ns() const { return total_; }
  /// Nearest-rank percentile in ns (p in [0, 100]); 0 with no samples.
  double percentile(double p) {
    if (v_.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(v_.size() - 1) + 0.5);
    std::nth_element(v_.begin(), v_.begin() + static_cast<long>(rank),
                     v_.end());
    return static_cast<double>(v_[rank]);
  }

 private:
  std::vector<std::uint64_t> v_;
  std::uint64_t total_ = 0;
};

/// The traced pass's sink for handler and churn timings. One per kernel
/// shard, written only by the worker running that shard.
struct Recorder {
  explicit Recorder(std::size_t kinds) : by_kind(kinds) {}
  std::vector<Samples> by_kind;  // handler wall time by payload kind
  Samples churn;                 // churn hook (join/leave) wall time
};

/// Maps a delivered message to the Recorder kind it is filed under.
using Classifier = std::size_t (*)(const net::Message&);

/// Timing proxy in front of one protocol node: forwards every delivery to
/// the node's public handle_message and records the handler's wall time by
/// payload kind. A node attaches itself when it joins, so attach() must be
/// called again after every join().
template <typename Node>
class TimedHost final : public net::Host {
 public:
  TimedHost(Node& node, Recorder& rec, Classifier classify)
      : node_(node), rec_(rec), classify_(classify) {}
  TimedHost(const TimedHost&) = delete;
  TimedHost& operator=(const TimedHost&) = delete;

  void handle_message(const net::Message& msg) override {
    const std::uint64_t t0 = now_ns();
    node_.handle_message(msg);
    rec_.by_kind[classify_(msg)].add(now_ns() - t0);
  }

  void attach(net::Network& netw) { netw.attach(node_.addr(), this); }

 private:
  Node& node_;
  Recorder& rec_;
  Classifier classify_;
};

/// Canonical byte stream of simulated statistics, hashed with SHA-256.
/// Equal digests mean the two runs simulated the same thing.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void hash(const crypto::Hash256& h) {
    buf_.append(reinterpret_cast<const char*>(h.bytes.data()), h.bytes.size());
  }
  std::string hex() const { return crypto::sha256(buf_).short_hex(16); }

 private:
  std::string buf_;
};

/// Event count and wall time the kernel profiler charged to `tag`.
inline sim::Profiler::TagStats tag_stats(const sim::Profiler& prof,
                                         const char* tag) {
  const auto tags = prof.by_tag();
  const auto it = tags.find(tag);
  return it == tags.end() ? sim::Profiler::TagStats{} : it->second;
}

/// Mean wall ns per event of a profiler tag; 0 when the tag never fired.
inline double tag_ns_per_event(const sim::Profiler& prof, const char* tag) {
  const auto st = tag_stats(prof, tag);
  return st.events == 0 ? 0.0
                        : static_cast<double>(st.wall_ns) /
                              static_cast<double>(st.events);
}

/// Network config pre-sized for `nodes` hosts; every other field default.
inline net::NetworkConfig net_config(std::size_t nodes) {
  net::NetworkConfig cfg;
  cfg.expected_nodes = nodes;
  return cfg;
}

inline double ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

/// Result of one pass (untraced or traced) of one workload.
struct Report {
  // End-to-end host times, seconds.
  double setup_s = 0;
  double run_s = 0;
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t ops = 0;
  std::uint64_t ops_failed = 0;
  std::vector<std::string> violations;
  std::string digest;
  // Deterministic simulated outcomes, for the human-readable log.
  std::vector<std::pair<std::string, double>> stats;
  // Per-layer metrics; filled by the traced pass only.
  std::vector<std::pair<std::string, double>> layer;

  void stat(std::string name, double v) {
    stats.emplace_back(std::move(name), v);
  }
  void metric(std::string name, double v) {
    layer.emplace_back(std::move(name), v);
  }
  /// p50 and p99 of `s`, scaled by `div` (1 = ns, 1000 = us).
  void percentiles(const std::string& prefix, Samples& s, const char* unit,
                   double div = 1.0) {
    metric(prefix + ".p50_" + unit, s.percentile(50) / div);
    metric(prefix + ".p99_" + unit, s.percentile(99) / div);
  }
};

/// Host-time phase marks of one pass. The checks and the digest run between
/// the end of the drain and teardown; their time is left out of wall_s.
struct Phases {
  std::uint64_t start = now_ns();
  std::uint64_t run_begin = 0;
  std::uint64_t run_end = 0;
  std::uint64_t check_ns = 0;

  void finish(Report& rep) const {
    const std::uint64_t end = now_ns();
    rep.setup_s = static_cast<double>(run_begin - start) / 1e9;
    rep.run_s = static_cast<double>(run_end - run_begin) / 1e9;
    rep.wall_s = static_cast<double>(end - start - check_ns) / 1e9;
  }
};

/// Kernel- and network-level per-layer metrics every traced pass reports,
/// from the profiler and the pass's recorders (handler and churn times).
void add_net_layer(Report& rep, const sim::Profiler& prof,
                   const net::Network& netw, std::uint64_t dropped_offline,
                   const std::vector<Recorder>& recs);

/// Value of the counter `name` in `reg`; 0 when it was never registered.
std::uint64_t counter_value(const sim::MetricRegistry& reg,
                            const std::string& name);

Report run_pow_chain(const Options& o);
Report run_pbft_commit(const Options& o);
Report run_kad_lookup(const Options& o);
Report run_gossip_sharded(const Options& o);

}  // namespace decentbench
