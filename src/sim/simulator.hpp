// The discrete-event simulation kernel.
//
// A Simulator owns an indexed priority queue of timestamped callbacks and a
// simulated clock. Everything in decentnet — network delivery, protocol
// timers, churn, mining — is expressed as events on one Simulator instance,
// which makes each experiment single-threaded and bit-for-bit reproducible
// from its root seed. (Multi-core runs compose several Simulators — one per
// shard — behind conservative-lookahead barriers; see sim/sharding.hpp.
// Each shard is exactly this kernel, untouched.)
//
// Hot-path design (this is the layer every experiment's scale is bounded by):
//   * Callbacks are sim::InlineFn<64>: captures up to 64 bytes live inside
//     the event slot itself (larger ones take a single boxed allocation), so
//     neither post() nor schedule() allocates in steady state.
//   * Events live in a slab arena recycled through a free list and are
//     referenced by slot index; the ready queue is a 4-ary heap of small
//     {when, seq, slot} entries, so sifting moves 24-byte records instead of
//     whole events and keeps the (when, seq) FIFO tie-break exact.
//   * Heap order compares (when, seq) as one unsigned 128-bit rank, and the
//     pop picks the least of a full sibling group with a 2+1 tournament of
//     conditional selects, so the many same-`when` entries one multicast
//     queues cost no mispredicted branches. `seq` is unique, so the rank is
//     a total order and the pop order is exactly the (when, seq) order.
//   * EventHandle is a {slot, generation} ticket: cancellation flips the
//     slot's state, validity compares generations — no shared_ptr, no
//     allocation. Generations bump whenever a slot is released (fire,
//     cancelled-event reclaim, clear()), so stale handles read as invalid.
//
// Two scheduling flavours exist:
//   * schedule()/schedule_at()/schedule_periodic() return an EventHandle for
//     later cancellation.
//   * post()/post_at() are fire-and-forget. Both flavours are now
//     allocation-free; post() remains the idiomatic choice when the handle
//     would be discarded.
//
// Lifetime: EventHandle does not own the kernel. Handles must not be used
// after their Simulator is destroyed (every component in this repo holds a
// reference to a Simulator that outlives it, so this is the natural order).
//
// An optional TraceSink observes every scheduled/fired/cancelled event, and
// an optional Profiler wall-clock-times every fired callback per tag; with
// neither installed the hooks cost a single predictable null test each.
// Cancelled events are reclaimed lazily — the "cancel" trace record is
// emitted when the event would have fired, exactly as the original kernel
// did.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace decentnet::sim {

// Deliberately only forward-declared here: profiler.hpp drags in hash-table
// templates, and instantiating those in every TU that includes the kernel
// header perturbs inlining of the hot paths compiled there. Telemetry gets
// the same treatment (telemetry.hpp pulls in <functional> and <fstream>).
class Profiler;
class Telemetry;
class Simulator;

/// Handle used to cancel a scheduled event (or a periodic series).
/// Cheap to copy; all copies refer to the same event.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the handle refers to an event (or periodic series) that has not
  /// fired or been cancelled. After Simulator::clear() all outstanding
  /// handles report invalid.
  bool valid() const;

  /// Cancel the event. Reclamation is lazy: the slot is recycled when the
  /// event surfaces in the queue. Idempotent; no-op after firing.
  void cancel();

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulator {
 public:
  using Callback = InlineFn<64>;

  explicit Simulator(std::uint64_t seed = 0xDECE57ull) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Root RNG for the simulation; fork per component for isolation.
  Rng& rng() { return rng_; }

  /// Install (or clear, with nullptr) the trace sink. The sink is borrowed:
  /// the caller keeps ownership and must outlive the simulator's use of it.
  void set_trace(TraceSink* sink) { trace_ = sink; }
  TraceSink* trace() const { return trace_; }

  /// Install (or clear, with nullptr) the self-profiler: every fired event's
  /// callback is wall-clock timed and attributed to its tag. Borrowed, same
  /// lifetime rule as the trace sink; null costs one test per fired event.
  void set_profiler(Profiler* profiler) { profiler_ = profiler; }
  Profiler* profiler() const { return profiler_; }

  /// Install (or clear, with nullptr) sim-time telemetry: the drain loop
  /// samples every registered series at each cadence boundary it crosses
  /// (see sim/telemetry.hpp). Borrowed, same lifetime rule as the trace
  /// sink; null costs nothing — the check shares the profiler's once-per-run
  /// loop selection, not a per-event branch.
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }
  Telemetry* telemetry() const { return telemetry_; }

  /// Schedule `fn` to run `delay` from now. Negative delays clamp to "now".
  /// `tag` (a string literal) labels the event in trace output.
  EventHandle schedule(SimDuration delay, Callback fn,
                       const char* tag = nullptr) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn), tag);
  }

  /// Schedule `fn` at an absolute simulated time (>= now).
  EventHandle schedule_at(SimTime when, Callback fn,
                          const char* tag = nullptr);

  /// Fire-and-forget variant of schedule(): no EventHandle. Prefer this when
  /// the handle would be discarded.
  void post(SimDuration delay, Callback fn, const char* tag = nullptr) {
    post_at(now_ + (delay < 0 ? 0 : delay), std::move(fn), tag);
  }

  /// Fire-and-forget variant of schedule_at().
  void post_at(SimTime when, Callback fn, const char* tag = nullptr);

  /// Schedule `fn` every `period`, starting after `initial_delay`.
  /// The returned handle cancels all future firings.
  EventHandle schedule_periodic(SimDuration initial_delay, SimDuration period,
                                Callback fn, const char* tag = nullptr);

  /// Run events until the queue drains or simulated time would pass `until`.
  /// Events at exactly `until` are executed. Returns events processed.
  std::size_t run_until(SimTime until);

  /// Run until the queue is empty (use with care: periodic timers never end).
  std::size_t run_all();

  /// Drop every pending event and periodic series. Outstanding EventHandles
  /// become invalid (their slots' generations are bumped).
  void clear();

  std::size_t pending_events() const { return heap_.size(); }
  std::uint64_t total_events_processed() const { return processed_; }

  /// Earliest queued fire time, or SimTime's max when the queue is empty.
  /// A cancelled-but-unreclaimed top counts — it is a conservative lower
  /// bound, which is all the sharded kernel's window computation needs
  /// (see sim/sharding.hpp).
  SimTime next_event_time() const {
    return heap_.empty() ? std::numeric_limits<SimTime>::max()
                         : heap_[0].when;
  }

 private:
  friend class EventHandle;

  enum class State : std::uint8_t {
    kFree,       // on the free list
    kPending,    // queued in the heap
    kCancelled,  // queued but cancelled; reclaimed lazily when it surfaces
    kSeries,     // periodic-series control slot (never in the heap)
  };

  /// One slab slot. For kSeries slots, `fn` is the user callback, `when`
  /// holds the period, and the slot is parked outside the heap while the
  /// per-firing events (small {this, slot, gen} captures) reference it.
  /// The FIFO tie-break sequence lives only in the HeapEntry — the slot
  /// never needs it, and dropping it (plus InlineFn's pointer alignment)
  /// keeps the slot at 96 bytes instead of 112.
  struct Event {
    SimTime when = 0;
    const char* tag = nullptr;  // trace category; may be null
    std::uint32_t gen = 0;
    State state = State::kFree;
    Callback fn;
  };

  /// Heap entry: the ordering key is copied next to the slot index so sift
  /// comparisons never chase into the arena.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    /// The heap order: (when, seq) as one unsigned 128-bit number, `when`
    /// with its sign bit flipped (so signed order becomes unsigned order) in
    /// the high half and `seq` in the low half. One compare, no branch on
    /// `when` ties.
    unsigned __int128 rank() const {
      const std::uint64_t hi =
          static_cast<std::uint64_t>(when) ^ (std::uint64_t{1} << 63);
      return (static_cast<unsigned __int128>(hi) << 64) | seq;
    }
  };

  std::uint32_t alloc_slot();
  void release_slot(std::uint32_t slot);
  std::uint32_t push_event(SimTime when, Callback fn, const char* tag);
  void heap_push(HeapEntry e);
  void heap_pop_min();
  void fire_top(const HeapEntry& top);
  void reclaim_cancelled_top(const HeapEntry& top);
  /// The one drain loop behind run_until (kBounded) and run_all, over a
  /// compile-time hook policy; defined in sim/simulator_drain.hpp and
  /// instantiated only by the kernel's own translation units.
  template <bool kBounded, class Hooks>
  std::size_t drain(SimTime until, Hooks hooks);
  /// The drain with profiler/telemetry hooks, used when either is
  /// installed; selected once per run_* call and defined in
  /// simulator_profiled.cpp — a separate TU, so the uninstrumented loops
  /// (and everything compiled next to them) keep their pre-profiler
  /// codegen. See the comment atop that file.
  std::size_t drain_instrumented(SimTime until, bool bounded);
  void arm_periodic(std::uint32_t slot, std::uint32_t gen, SimTime when,
                    const char* tag);
  void fire_periodic(std::uint32_t slot, std::uint32_t gen);

  bool handle_valid(std::uint32_t slot, std::uint32_t gen) const {
    if (slot >= arena_.size()) return false;
    const Event& ev = arena_[slot];
    return ev.gen == gen &&
           (ev.state == State::kPending || ev.state == State::kSeries);
  }
  void handle_cancel(std::uint32_t slot, std::uint32_t gen) {
    if (slot >= arena_.size()) return;
    Event& ev = arena_[slot];
    if (ev.gen != gen) return;
    if (ev.state == State::kPending) {
      ev.state = State::kCancelled;  // heap still references it: lazy reclaim
    } else if (ev.state == State::kSeries) {
      release_slot(slot);  // nothing queued references series slots
    }
  }

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  Rng rng_;
  TraceSink* trace_ = nullptr;
  std::vector<Event> arena_;
  std::vector<std::uint32_t> free_;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap over (when, seq)
  // Last on purpose: the hot members above keep their pre-profiler offsets
  // (the fill/drain micros are sensitive to arena_/heap_ crossing lines).
  Profiler* profiler_ = nullptr;
  Telemetry* telemetry_ = nullptr;
};

inline bool EventHandle::valid() const {
  return sim_ != nullptr && sim_->handle_valid(slot_, gen_);
}

inline void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->handle_cancel(slot_, gen_);
}

}  // namespace decentnet::sim
