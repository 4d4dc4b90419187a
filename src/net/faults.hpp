// Deterministic fault injection: script a timeline of network and node
// faults, replay it bit-for-bit from the experiment's seed.
//
// The paper's Problems 1–4 are claims about protocol behaviour *under
// adversity* — churn, partitions, heterogeneous and unreachable nodes — so
// faults are first-class here: a FaultPlan is a declarative list of fault
// events (named multi-group partitions with heal times, node crash/restart,
// per-link latency penalties and bandwidth degradation, transient loss
// bursts, message duplication and reordering windows) and a FaultScheduler
// executes it against a Network on its Simulator. Every inject and heal is
// emitted through the kernel TraceSink (kind="fault"/"heal", tag=fault
// type) and counted under net/fault/ scoped metrics, so a same-seed run
// serializes a byte-identical trace.
//
//   net::FaultPlan plan;
//   plan.partition(sim::seconds(30), "wan-split",
//                  {{a.value, b.value}, {c.value}}, sim::seconds(90))
//       .crash(sim::seconds(45), /*node=*/2)
//       .restart(sim::seconds(60), /*node=*/2)
//       .loss_burst(sim::seconds(30), 0.2, sim::seconds(90))
//       .duplicate_window(sim::seconds(30), 0.05, sim::seconds(90));
//   net::FaultScheduler faults(netw, plan,
//                              {.crash = ..., .restart = ...});
//   faults.start();
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/network.hpp"
#include "sim/time.hpp"

namespace decentnet::sim::jsonlite {
struct JsonValue;
}

namespace decentnet::sim {
class Telemetry;  // sim/telemetry.hpp
}

namespace decentnet::net {

class ChurnDriver;  // net/churn.hpp; fault crashes suspend churn when wired

/// One declarative fault event. Build through FaultPlan's fluent methods;
/// the fields are public so tests and tools can introspect a plan.
struct FaultEvent {
  enum class Kind : std::uint8_t {
    Partition,          // named multi-group split, healed at heal_at
    Crash,              // crash hook for node index (point event)
    Restart,            // restart hook for node index (point event)
    LatencyPenalty,     // extra propagation delay on one node's links
    BandwidthDegrade,   // multiply one node's link capacity by `value`
    LossBurst,          // uniform loss probability window
    DuplicateWindow,    // per-message duplication probability window
    ReorderWindow,      // extra uniform per-message jitter window
  };

  Kind kind = Kind::Partition;
  sim::SimTime at = 0;       // inject time
  sim::SimTime heal_at = 0;  // heal time; 0 = never heals (point events: n/a)
  std::string name;          // partition name / trace label
  std::vector<std::unordered_set<std::uint64_t>> groups;  // Partition
  std::size_t node = 0;      // target node index (crash/restart/link faults)
  double value = 0;          // probability or bandwidth factor
  sim::SimDuration duration = 0;  // latency penalty / reorder jitter
};

/// A seed-independent, declarative fault timeline. Plans are plain data:
/// build once, hand to any number of FaultSchedulers (e.g. one per sweep
/// point), introspect in tests.
class FaultPlan {
 public:
  /// Split the network into `groups` (unlisted nodes form an implicit extra
  /// group) from `at` until `heal_at` (0 = permanent).
  FaultPlan& partition(sim::SimTime at, std::string name,
                       std::vector<std::unordered_set<std::uint64_t>> groups,
                       sim::SimTime heal_at = 0);
  /// Crash-stop node `node` (index into FaultTargets::nodes) at `at`.
  FaultPlan& crash(sim::SimTime at, std::size_t node);
  /// Restart node `node` at `at`.
  FaultPlan& restart(sim::SimTime at, std::size_t node);
  /// Add `extra` propagation delay to every message node `node` sends or
  /// receives, from `at` until `heal_at`.
  FaultPlan& latency_penalty(sim::SimTime at, std::size_t node,
                             sim::SimDuration extra, sim::SimTime heal_at = 0);
  /// Multiply node `node`'s up/downlink capacity by `factor` (< 1 degrades),
  /// from `at` until `heal_at`.
  FaultPlan& bandwidth_degrade(sim::SimTime at, std::size_t node,
                               double factor, sim::SimTime heal_at = 0);
  /// Uniform message loss with probability `p` from `at` until `heal_at`.
  FaultPlan& loss_burst(sim::SimTime at, double p, sim::SimTime heal_at = 0);
  /// Duplicate each delivered message with probability `p` in the window.
  FaultPlan& duplicate_window(sim::SimTime at, double p,
                              sim::SimTime heal_at = 0);
  /// Add uniform per-message jitter in [0, jitter] in the window (breaks
  /// FIFO arrival order).
  FaultPlan& reorder_window(sim::SimTime at, sim::SimDuration jitter,
                            sim::SimTime heal_at = 0);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// Append an already-built event (used by from_json and the chaos
  /// shrinker, which re-assemble plans clause by clause).
  FaultPlan& add(FaultEvent ev);

  /// Structural validation: every event's times, probabilities, factors and
  /// partition groups are checked, and the first problem is returned as an
  /// actionable message naming the event index and field ("event 3
  /// (loss): probability 1.5 out of [0, 1]"). nullopt = plan is valid.
  /// `num_nodes` (0 = unknown) additionally bounds node indices and
  /// partition member addresses.
  std::optional<std::string> validate(std::size_t num_nodes = 0) const;

  /// Serialize to a byte-stable JSON document: fixed key order, partition
  /// group members sorted ascending, times as integer microseconds. The
  /// output of to_json(from_json(s)) equals to_json of the original plan.
  std::string to_json() const;

  /// Parse a plan serialized by to_json (or hand-written in that shape).
  /// Throws std::invalid_argument with the event index and field on
  /// malformed input; the returned plan always passes validate(0).
  static FaultPlan from_json(std::string_view text);

  /// Same, from an already-parsed JSON value (the chaos repro envelope
  /// embeds a plan object inside its own document).
  static FaultPlan from_json_value(const sim::jsonlite::JsonValue& doc);

 private:
  std::vector<FaultEvent> events_;
};

/// Hooks the scheduler drives for node-level faults. `nodes` maps the plan's
/// dense node indices to network addresses (required by link-level faults);
/// `crash`/`restart` invoke the protocol's own crash-stop machinery and may
/// be empty when the plan has no such events. (Every member has an
/// initializer, so `{.nodes = ...}` omits the rest without GCC's
/// -Wmissing-field-initializers.)
struct FaultTargets {
  std::vector<NodeId> nodes{};
  std::function<void(std::size_t node)> crash{};
  std::function<void(std::size_t node)> restart{};
  /// Optional: when a ChurnDriver manages the same peers, the scheduler
  /// holds a node's churn across its crash→restart window so a churn
  /// transition cannot revive it early (fault-crash is authoritative).
  ChurnDriver* churn = nullptr;
};

/// Executes a FaultPlan against a Network: schedules one kernel event per
/// inject/heal, applies the fault through the Network's fault surface (or the
/// crash/restart hooks), and emits a TraceRecord plus net/fault/ counters for
/// each. Construction is passive; call start() once.
class FaultScheduler {
 public:
  FaultScheduler(Network& net, FaultPlan plan, FaultTargets targets = {});

  /// Schedule every event in the plan (relative to absolute plan times; call
  /// at t=0 for the times to mean what the plan says).
  void start();

  /// Cancel every not-yet-fired inject/heal. Already-applied faults stay
  /// applied (heal explicitly or via Network setters).
  void stop();

  std::uint64_t injected() const { return injected_; }
  std::uint64_t healed() const { return healed_; }
  const FaultPlan& plan() const { return plan_; }

  /// Register fault-health series: a gauge of currently active partitions
  /// plus windowed inject/heal rates, so `decentnet-trace timeline` can
  /// correlate gauge excursions against fault activity. Call after the
  /// harness instrument()ed the kernel (attach resets registrations).
  void register_telemetry(sim::Telemetry& telemetry);

 private:
  void inject(const FaultEvent& ev, std::size_t index);
  void heal(const FaultEvent& ev, std::size_t index);
  void trace(const char* kind, const FaultEvent& ev, std::size_t index);
  NodeId addr(std::size_t node) const;

  Network& net_;
  sim::Simulator& sim_;
  FaultPlan plan_;
  FaultTargets targets_;
  sim::Counter& m_injected_;
  sim::Counter& m_healed_;
  sim::Counter& m_partitions_;
  sim::Counter& m_crashes_;
  sim::Counter& m_restarts_;
  sim::Counter& m_link_faults_;
  sim::Counter& m_window_faults_;
  std::uint64_t injected_ = 0;
  std::uint64_t healed_ = 0;
  // Saved pre-fault LinkSpec, restored whole on heal (keyed by event index) —
  // capacities *and* queue depth round-trip through degrade/heal.
  std::vector<LinkSpec> saved_link_;
  // Pre-fault loss probability for LossBurst heals.
  std::vector<double> saved_loss_;
  std::vector<sim::EventHandle> scheduled_;
  bool started_ = false;
};

/// The trace tag for a fault kind ("partition", "crash", ...); also used by
/// the per-kind counter bump and the JSON "kind" field.
const char* fault_kind_name(FaultEvent::Kind kind);

/// Reverse of fault_kind_name; nullopt for an unknown name.
std::optional<FaultEvent::Kind> fault_kind_from_name(std::string_view name);

}  // namespace decentnet::net
