// The one drain loop behind Simulator::run_until and run_all, written once
// as a template over a hook policy. Private to the kernel: simulator.cpp
// instantiates it with no-op hooks (the hot, uninstrumented loops) and
// simulator_profiled.cpp with the profiler/telemetry hooks, so each
// translation unit keeps its own codegen (see the comment atop
// simulator_profiled.cpp for why that matters).
//
// A Hooks type provides:
//   * before_fire(when)  — called before firing an event due at `when`
//                          (telemetry samples the boundaries it passes);
//   * fire(tag, f)       — must call f() exactly once; f fires the event
//                          (the profiler times the call under `tag`);
//   * after_run(t)       — called once when the loop ends, with the horizon
//                          (bounded) or the final clock (unbounded).
#pragma once

#include "sim/simulator.hpp"

namespace decentnet::sim {

/// kBounded: run_until(until) — stop before events past `until`, then
/// advance the clock to it. Unbounded: run_all() — drain the whole queue
/// and leave the clock at the last fired event (`until` is ignored).
template <bool kBounded, class Hooks>
std::size_t Simulator::drain(SimTime until, Hooks hooks) {
  std::size_t n = 0;
  while (!heap_.empty()) {
    const HeapEntry top = heap_[0];
    // Skip cancelled events cheaply without advancing the clock (even past
    // the horizon — reclamation is what empties the queue).
    if (arena_[top.slot].state == State::kCancelled) {
      reclaim_cancelled_top(top);
      continue;
    }
    if (kBounded && top.when > until) break;
    hooks.before_fire(top.when);
    hooks.fire(arena_[top.slot].tag, [&] { fire_top(top); });
    ++n;
  }
  if constexpr (kBounded) {
    if (now_ < until) now_ = until;
    hooks.after_run(until);
  } else {
    hooks.after_run(now_);
  }
  return n;
}

}  // namespace decentnet::sim
