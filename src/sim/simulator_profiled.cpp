// The instrumented drain, deliberately in its own translation unit.
//
// This is the one drain template (sim/simulator_drain.hpp) instantiated with
// profiler/telemetry hooks — selected once per run_* call, not per event —
// used whenever a profiler and/or telemetry is installed, so installing
// neither leaves the hot loops' codegen untouched. Two earlier shapes
// measurably regressed the fill/drain micros with the profiler *disabled*:
//   * a per-event `if (profiler_)` inside fire_top perturbed GCC's inlining
//     of the fire path;
//   * defining the instrumented loops inside simulator.cpp shifted the
//     unit-growth inlining budget for the whole TU (alloc_slot's fast path,
//     for one, grew a full spill prologue).
// Instantiating them here leaves simulator.cpp compiling to the same code
// as before the profiler existed, give or take the two entry checks.
//
// The profiler timer brackets all of fire_top, so per-tag wall time includes
// the kernel's own pop/recycle work, not just the callback body.
//
// Telemetry sampling happens *between* events: before firing an event past a
// cadence boundary, every boundary strictly before it is sampled, so a
// boundary-T sample always reflects the state after all events at t <= T
// have run (events at exactly T fire before the T sample). The per-event
// cost when telemetry is on but not yet due is one load + compare.
#include "sim/profiler.hpp"
#include "sim/simulator.hpp"
#include "sim/simulator_drain.hpp"
#include "sim/telemetry.hpp"

namespace decentnet::sim {

namespace {

/// Either pointer may be null (a run with only one of the two installed).
struct InstrumentedHooks {
  Profiler* prof;
  Telemetry* tel;

  void before_fire(SimTime when) {
    if (tel != nullptr && when > tel->next_due()) tel->advance_to(when - 1);
  }
  template <class Fire>
  void fire(const char* tag, Fire&& f) {
    if (prof == nullptr) {
      f();
      return;
    }
    const std::uint64_t t0 = Profiler::now_ns();
    f();
    prof->record(tag, Profiler::now_ns() - t0);
  }
  void after_run(SimTime t) {
    if (tel != nullptr) tel->advance_to(t);
  }
};

}  // namespace

std::size_t Simulator::drain_instrumented(SimTime until, bool bounded) {
  const InstrumentedHooks hooks{profiler_, telemetry_};
  return bounded ? drain<true>(until, hooks) : drain<false>(until, hooks);
}

}  // namespace decentnet::sim
