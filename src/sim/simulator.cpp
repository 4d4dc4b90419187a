#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

#include "sim/simulator_drain.hpp"

namespace decentnet::sim {

namespace {
/// The uninstrumented drain: every hook compiles away.
struct NoHooks {
  void before_fire(SimTime) {}
  template <class Fire>
  void fire(const char*, Fire&& f) {
    f();
  }
  void after_run(SimTime) {}
};
}  // namespace

std::uint32_t Simulator::alloc_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  arena_.emplace_back();
  return static_cast<std::uint32_t>(arena_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  Event& ev = arena_[slot];
  ev.fn.reset();
  ev.tag = nullptr;
  ev.state = State::kFree;
  ++ev.gen;  // outstanding handles to this slot read as invalid from here on
  free_.push_back(slot);
}

void Simulator::heap_push(HeapEntry e) {
  // Hole insertion: slide parents down into the hole and place the new
  // entry once, instead of a 3-move swap per level.
  heap_.push_back(e);
  const unsigned __int128 rank = e.rank();
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(rank < heap_[parent].rank())) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::heap_pop_min() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Hole percolation with the displaced last entry.
  using Rank = unsigned __int128;
  HeapEntry* const h = heap_.data();
  const Rank last_rank = last.rank();
  std::size_t i = 0;
  for (;;) {
    const std::size_t c = 4 * i + 1;
    std::size_t best;
    Rank best_rank;
    if (c + 4 <= n) {
      // Full sibling group: a 2+1 tournament of conditional selects.
      const Rank r0 = h[c].rank(), r1 = h[c + 1].rank();
      const Rank r2 = h[c + 2].rank(), r3 = h[c + 3].rank();
      const bool b01 = r1 < r0, b23 = r3 < r2;
      const Rank ra = b01 ? r1 : r0, rb = b23 ? r3 : r2;
      const bool right = rb < ra;
      // The index is mask arithmetic: GCC turns a ternary here back into a
      // (mispredicting) branch.
      const std::size_t take_b = 0 - static_cast<std::size_t>(right);
      best = c + (((2 + b23) & take_b) | (b01 & ~take_b));
      best_rank = right ? rb : ra;
    } else if (c < n) {
      // Partial last group (1-3 children).
      best = c;
      best_rank = h[c].rank();
      for (std::size_t k = c + 1; k < n; ++k) {
        const Rank r = h[k].rank();
        if (r < best_rank) {
          best = k;
          best_rank = r;
        }
      }
    } else {
      break;
    }
    if (!(best_rank < last_rank)) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = last;
}

std::uint32_t Simulator::push_event(SimTime when, Callback fn,
                                    const char* tag) {
  if (when < now_) when = now_;
  const std::uint64_t id = seq_++;
  if (trace_) {
    trace_->record({now_, "sched", tag ? tag : "", id,
                    static_cast<std::uint64_t>(when), 0, 0});
  }
  const std::uint32_t slot = alloc_slot();
  Event& ev = arena_[slot];
  ev.when = when;
  ev.fn = std::move(fn);
  ev.tag = tag;
  ev.state = State::kPending;
  heap_push({when, id, slot});
  return slot;
}

EventHandle Simulator::schedule_at(SimTime when, Callback fn,
                                   const char* tag) {
  const std::uint32_t slot = push_event(when, std::move(fn), tag);
  return EventHandle(this, slot, arena_[slot].gen);
}

void Simulator::post_at(SimTime when, Callback fn, const char* tag) {
  push_event(when, std::move(fn), tag);
}

void Simulator::arm_periodic(std::uint32_t slot, std::uint32_t gen,
                             SimTime when, const char* tag) {
  // Each firing is a detached event with a 16-byte {this-free} capture; the
  // series callback itself stays parked in the series slot.
  post_at(when, [this, slot, gen] { fire_periodic(slot, gen); }, tag);
}

void Simulator::fire_periodic(std::uint32_t slot, std::uint32_t gen) {
  {
    const Event& ev = arena_[slot];
    if (ev.gen != gen || ev.state != State::kSeries) return;  // cancelled
  }
  // Move the callback out before invoking: the callback may schedule events,
  // which can grow (reallocate) the arena under us.
  Callback fn = std::move(arena_[slot].fn);
  const SimDuration period = static_cast<SimDuration>(arena_[slot].when);
  const char* tag = arena_[slot].tag;
  fn();
  // The callback may have cancelled its own series (or cleared the kernel);
  // re-check before parking the callback back and re-arming.
  Event& ev = arena_[slot];
  if (ev.gen != gen || ev.state != State::kSeries) return;
  ev.fn = std::move(fn);
  arm_periodic(slot, gen, now_ + period, tag);
}

EventHandle Simulator::schedule_periodic(SimDuration initial_delay,
                                         SimDuration period, Callback fn,
                                         const char* tag) {
  if (period <= 0) throw std::invalid_argument("periodic event needs period > 0");
  const std::uint32_t slot = alloc_slot();
  Event& ev = arena_[slot];
  ev.when = period;  // series slots park the period here (never heap-ordered)
  ev.fn = std::move(fn);
  ev.tag = tag;
  ev.state = State::kSeries;
  const std::uint32_t gen = ev.gen;
  arm_periodic(slot, gen, now_ + (initial_delay < 0 ? 0 : initial_delay), tag);
  return EventHandle(this, slot, gen);
}

void Simulator::reclaim_cancelled_top(const HeapEntry& top) {
  if (trace_) {
    const Event& ev = arena_[top.slot];
    trace_->record({now_, "cancel", ev.tag ? ev.tag : "", top.seq, 0, 0, 0});
  }
  heap_pop_min();
  release_slot(top.slot);
}

void Simulator::fire_top(const HeapEntry& top) {
  // Detach the callback and recycle the slot *before* invoking it: inside
  // its own callback a handle reads invalid and cancel() is a no-op (the
  // generation already moved on), and the callback is free to schedule new
  // events even though that may reallocate the arena.
  Event& ev = arena_[top.slot];
  Callback fn = std::move(ev.fn);
  const char* tag = ev.tag;
  heap_pop_min();
  release_slot(top.slot);
  now_ = top.when;
  if (trace_) {
    trace_->record({now_, "fire", tag ? tag : "", top.seq, 0, 0, 0});
  }
  fn();
  ++processed_;
}

std::size_t Simulator::run_until(SimTime until) {
  if (profiler_ != nullptr || telemetry_ != nullptr) [[unlikely]] {
    return drain_instrumented(until, /*bounded=*/true);
  }
  return drain<true>(until, NoHooks{});
}

std::size_t Simulator::run_all() {
  if (profiler_ != nullptr || telemetry_ != nullptr) [[unlikely]] {
    return drain_instrumented(0, /*bounded=*/false);
  }
  return drain<false>(0, NoHooks{});
}

void Simulator::clear() {
  for (const HeapEntry& e : heap_) release_slot(e.slot);
  heap_.clear();
  // Periodic series slots are parked outside the heap; invalidate them too
  // so no orphaned handle can resurrect a series.
  for (std::uint32_t i = 0; i < arena_.size(); ++i) {
    if (arena_[i].state == State::kSeries) release_slot(i);
  }
}

}  // namespace decentnet::sim
