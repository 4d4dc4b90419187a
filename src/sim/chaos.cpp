#include "sim/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/jsonlite.hpp"

namespace decentnet::sim {

namespace {

constexpr std::uint64_t kChaosSalt = 0xC4A0'5E11'0F42'57ull;

// Fault inject/heal placement inside the horizon: inject in
// [kInjectLo, kInjectHi]·horizon, heal by kHealBy·horizon, so the tail
// [kHealBy, 1]·horizon is fault-free for recovery oracles.
constexpr double kInjectLo = 0.05;
constexpr double kInjectHi = 0.6;
constexpr double kHealBy = 0.8;

SimTime round_ms(double secs) {
  return static_cast<SimTime>(std::llround(secs * 1000.0)) * 1000;
}

std::string range_problem(const char* name, const ChaosRange& r, double max) {
  if (r.lo < 0 || r.hi < r.lo) {
    return std::string("chaos space: ") + name + " range [" +
           jsonlite::format_double(r.lo) + ", " + jsonlite::format_double(r.hi) +
           "] must satisfy 0 <= lo <= hi";
  }
  if (r.hi > max) {
    return std::string("chaos space: ") + name + " upper bound " +
           jsonlite::format_double(r.hi) + " exceeds " +
           jsonlite::format_double(max);
  }
  return {};
}

void parse_count(const jsonlite::JsonValue& family, const std::string& ctx,
                 const char* key, ChaosCount& out) {
  const jsonlite::JsonValue* v = family.find(key);
  if (!v) return;
  const auto& pair = v->as_array(ctx + " '" + key + "'");
  if (pair.size() != 2) {
    throw std::invalid_argument(ctx + " '" + key + "': expected [lo, hi]");
  }
  out.lo = static_cast<std::uint32_t>(pair[0].as_uint(ctx + " '" + key + "' lo"));
  out.hi = static_cast<std::uint32_t>(pair[1].as_uint(ctx + " '" + key + "' hi"));
}

void parse_range(const jsonlite::JsonValue& family, const std::string& ctx,
                 const char* key, ChaosRange& out) {
  const jsonlite::JsonValue* v = family.find(key);
  if (!v) return;
  const auto& pair = v->as_array(ctx + " '" + key + "'");
  if (pair.size() != 2) {
    throw std::invalid_argument(ctx + " '" + key + "': expected [lo, hi]");
  }
  out.lo = pair[0].as_number(ctx + " '" + key + "' lo");
  out.hi = pair[1].as_number(ctx + " '" + key + "' hi");
}

double sample_range(Rng& rng, const ChaosRange& r) {
  return r.lo == r.hi ? r.lo : rng.uniform(r.lo, r.hi);
}

std::uint32_t sample_count(Rng& rng, const ChaosCount& c) {
  if (c.hi <= c.lo) return c.lo;
  return static_cast<std::uint32_t>(
      rng.uniform_int(static_cast<std::int64_t>(c.lo),
                      static_cast<std::int64_t>(c.hi)));
}

}  // namespace

std::optional<std::string> ChaosSpace::validate() const {
  if (nodes < 2) return "chaos space: need at least 2 nodes";
  if (horizon < seconds(10)) return "chaos space: horizon under 10 s";
  const auto counts = {
      std::pair<const char*, const ChaosCount*>{"partitions", &partitions},
      {"partition_groups", &partition_groups},
      {"crashes", &crashes},
      {"loss_bursts", &loss_bursts},
      {"duplicate_windows", &duplicate_windows},
      {"reorder_windows", &reorder_windows},
      {"latency_faults", &latency_faults},
  };
  for (const auto& [name, c] : counts) {
    if (c->hi < c->lo) {
      return std::string("chaos space: ") + name + " count [" +
             std::to_string(c->lo) + ", " + std::to_string(c->hi) +
             "] inverted";
    }
  }
  if (partition_groups.lo < 2) {
    return "chaos space: partitions need at least 2 groups";
  }
  const double horizon_s = to_seconds(horizon);
  for (const auto& [name, r, max] :
       {std::tuple<const char*, const ChaosRange*, double>{
            "partition_len_s", &partition_len_s, horizon_s},
        {"crash_len_s", &crash_len_s, horizon_s},
        {"loss_p", &loss_p, 1.0},
        {"loss_len_s", &loss_len_s, horizon_s},
        {"duplicate_p", &duplicate_p, 1.0},
        {"duplicate_len_s", &duplicate_len_s, horizon_s},
        {"reorder_jitter_ms", &reorder_jitter_ms, 1e9},
        {"reorder_len_s", &reorder_len_s, horizon_s},
        {"latency_penalty_ms", &latency_penalty_ms, 1e9},
        {"latency_len_s", &latency_len_s, horizon_s}}) {
    const std::string problem = range_problem(name, *r, max);
    if (!problem.empty()) return problem;
  }
  return std::nullopt;
}

ChaosSpace ChaosSpace::from_json(std::string_view text) {
  const jsonlite::JsonValue doc = jsonlite::parse(text);
  if (doc.kind != jsonlite::JsonValue::Kind::Object) {
    throw std::invalid_argument("chaos space: document must be an object");
  }
  ChaosSpace space;
  if (const jsonlite::JsonValue* v = doc.find("nodes")) {
    space.nodes = v->as_uint("chaos space 'nodes'");
  }
  if (const jsonlite::JsonValue* v = doc.find("horizon_s")) {
    space.horizon = seconds(v->as_number("chaos space 'horizon_s'"));
  }
  if (const jsonlite::JsonValue* v = doc.find("partitions")) {
    parse_count(*v, "chaos space 'partitions'", "count", space.partitions);
    parse_count(*v, "chaos space 'partitions'", "groups",
                space.partition_groups);
    parse_range(*v, "chaos space 'partitions'", "len_s", space.partition_len_s);
  }
  if (const jsonlite::JsonValue* v = doc.find("crashes")) {
    parse_count(*v, "chaos space 'crashes'", "count", space.crashes);
    parse_range(*v, "chaos space 'crashes'", "len_s", space.crash_len_s);
  }
  if (const jsonlite::JsonValue* v = doc.find("loss")) {
    parse_count(*v, "chaos space 'loss'", "count", space.loss_bursts);
    parse_range(*v, "chaos space 'loss'", "p", space.loss_p);
    parse_range(*v, "chaos space 'loss'", "len_s", space.loss_len_s);
  }
  if (const jsonlite::JsonValue* v = doc.find("duplicate")) {
    parse_count(*v, "chaos space 'duplicate'", "count",
                space.duplicate_windows);
    parse_range(*v, "chaos space 'duplicate'", "p", space.duplicate_p);
    parse_range(*v, "chaos space 'duplicate'", "len_s", space.duplicate_len_s);
  }
  if (const jsonlite::JsonValue* v = doc.find("reorder")) {
    parse_count(*v, "chaos space 'reorder'", "count", space.reorder_windows);
    parse_range(*v, "chaos space 'reorder'", "jitter_ms",
                space.reorder_jitter_ms);
    parse_range(*v, "chaos space 'reorder'", "len_s", space.reorder_len_s);
  }
  if (const jsonlite::JsonValue* v = doc.find("latency")) {
    parse_count(*v, "chaos space 'latency'", "count", space.latency_faults);
    parse_range(*v, "chaos space 'latency'", "penalty_ms",
                space.latency_penalty_ms);
    parse_range(*v, "chaos space 'latency'", "len_s", space.latency_len_s);
  }
  if (const std::optional<std::string> problem = space.validate()) {
    throw std::invalid_argument(*problem);
  }
  return space;
}

SimTime plan_quiesce_time(const net::FaultPlan& plan) {
  SimTime quiesce = 0;
  for (const net::FaultEvent& ev : plan.events()) {
    quiesce = std::max(quiesce, std::max(ev.at, ev.heal_at));
  }
  return quiesce;
}

ChaosEngine::ChaosEngine(ChaosSpace space) : space_(space) {
  if (const std::optional<std::string> problem = space_.validate()) {
    throw std::invalid_argument(*problem);
  }
}

net::FaultPlan ChaosEngine::sample_plan(std::uint64_t seed) const {
  // One forked stream per fault family: widening (say) the crash count range
  // re-draws only crashes, not every family after it.
  Rng base(kChaosSalt ^ seed);
  const double horizon_s = to_seconds(space_.horizon);
  const double inject_lo = kInjectLo * horizon_s;
  const double inject_hi = kInjectHi * horizon_s;
  const SimTime heal_by = round_ms(kHealBy * horizon_s);
  net::FaultPlan plan;

  // Inject time + bounded heal time for a windowed fault.
  const auto window = [&](Rng& rng, const ChaosRange& len_s) {
    const SimTime at = round_ms(rng.uniform(inject_lo, inject_hi));
    SimTime heal = at + round_ms(sample_range(rng, len_s));
    heal = std::min(heal, heal_by);
    if (heal <= at) heal = at + 100'000;  // floor: 100 ms window
    return std::pair<SimTime, SimTime>{at, heal};
  };

  {
    Rng rng = base.fork(1);
    const std::uint32_t n = sample_count(rng, space_.partitions);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto [at, heal] = window(rng, space_.partition_len_s);
      const std::uint64_t max_groups =
          std::min<std::uint64_t>(space_.partition_groups.hi, space_.nodes);
      const std::uint64_t g = static_cast<std::uint64_t>(rng.uniform_int(
          static_cast<std::int64_t>(
              std::min<std::uint64_t>(space_.partition_groups.lo, max_groups)),
          static_cast<std::int64_t>(max_groups)));
      std::vector<std::unordered_set<std::uint64_t>> groups(g);
      for (std::uint64_t id = 1; id <= space_.nodes; ++id) {
        groups[rng.uniform_int(g)].insert(id);
      }
      std::erase_if(groups, [](const auto& s) { return s.empty(); });
      if (groups.size() < 2) {
        // All nodes drew the same group: peel the lowest id into its own
        // side so the event is a real split.
        std::uint64_t lowest = ~0ull;
        for (const std::uint64_t id : groups[0]) lowest = std::min(lowest, id);
        groups[0].erase(lowest);
        groups.push_back({lowest});
      }
      plan.partition(at, "chaos-p" + std::to_string(i), std::move(groups),
                     heal);
    }
  }

  {
    Rng rng = base.fork(2);
    std::uint32_t n = sample_count(rng, space_.crashes);
    n = std::min<std::uint32_t>(n, static_cast<std::uint32_t>(space_.nodes));
    // Distinct victims: overlapping crash/restart pairs on one node would
    // make the plan's semantics order-dependent.
    std::vector<std::size_t> victims(space_.nodes);
    for (std::size_t i = 0; i < victims.size(); ++i) victims[i] = i;
    rng.shuffle(victims);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto [at, restart_at] = window(rng, space_.crash_len_s);
      plan.crash(at, victims[i]);
      plan.restart(restart_at, victims[i]);
    }
  }

  {
    Rng rng = base.fork(3);
    const std::uint32_t n = sample_count(rng, space_.loss_bursts);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto [at, heal] = window(rng, space_.loss_len_s);
      plan.loss_burst(at, sample_range(rng, space_.loss_p), heal);
    }
  }

  {
    Rng rng = base.fork(4);
    const std::uint32_t n = sample_count(rng, space_.duplicate_windows);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto [at, heal] = window(rng, space_.duplicate_len_s);
      plan.duplicate_window(at, sample_range(rng, space_.duplicate_p), heal);
    }
  }

  {
    Rng rng = base.fork(5);
    const std::uint32_t n = sample_count(rng, space_.reorder_windows);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto [at, heal] = window(rng, space_.reorder_len_s);
      plan.reorder_window(
          at, round_ms(sample_range(rng, space_.reorder_jitter_ms) / 1000.0),
          heal);
    }
  }

  {
    Rng rng = base.fork(6);
    const std::uint32_t n = sample_count(rng, space_.latency_faults);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto [at, heal] = window(rng, space_.latency_len_s);
      const std::size_t node = rng.uniform_int(space_.nodes);
      plan.latency_penalty(
          at, node,
          round_ms(sample_range(rng, space_.latency_penalty_ms) / 1000.0),
          heal);
    }
  }

  // Present the timeline in inject order (stable: a restart samples at or
  // after its crash, so pairs stay adjacent-ordered for the shrinker).
  std::vector<net::FaultEvent> timeline(plan.events());
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const net::FaultEvent& a, const net::FaultEvent& b) {
                     return a.at < b.at;
                   });
  net::FaultPlan sorted;
  for (auto& ev : timeline) sorted.add(std::move(ev));
  return sorted;
}

ShrinkResult ChaosEngine::shrink(const net::FaultPlan& plan,
                                 std::uint64_t seed,
                                 const ChaosScenario& scenario,
                                 std::size_t max_runs) const {
  // A clause is the smallest unit the delta-debugger removes whole: one
  // event, except a crash travels with its matching restart so no probe
  // plan strands a node crashed forever (which fails for the wrong reason).
  const std::vector<net::FaultEvent>& events = plan.events();
  std::vector<std::vector<std::size_t>> clauses;
  std::vector<char> claimed(events.size(), 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (claimed[i]) continue;
    std::vector<std::size_t> clause{i};
    if (events[i].kind == net::FaultEvent::Kind::Crash) {
      for (std::size_t j = i + 1; j < events.size(); ++j) {
        if (!claimed[j] && events[j].kind == net::FaultEvent::Kind::Restart &&
            events[j].node == events[i].node && events[j].at >= events[i].at) {
          claimed[j] = 1;
          clause.push_back(j);
          break;
        }
      }
    }
    claimed[i] = 1;
    clauses.push_back(std::move(clause));
  }

  ShrinkStats stats;
  stats.initial_clauses = clauses.size();

  // Mutable working copy of every event (phase 2 edits heal/restart times).
  std::vector<net::FaultEvent> work(events);
  std::vector<char> active(clauses.size(), 1);

  const auto build = [&] {
    net::FaultPlan probe;
    std::vector<char> keep(work.size(), 0);
    for (std::size_t c = 0; c < clauses.size(); ++c) {
      if (!active[c]) continue;
      for (const std::size_t idx : clauses[c]) keep[idx] = 1;
    }
    for (std::size_t i = 0; i < work.size(); ++i) {
      if (keep[i]) probe.add(work[i]);
    }
    return probe;
  };

  std::string violation;
  const auto fails = [&](const net::FaultPlan& probe) {
    ++stats.runs;
    const ChaosOutcome out = scenario(probe, seed);
    if (!out.ok) violation = out.violation;
    return !out.ok;
  };

  if (!fails(build())) {
    throw std::logic_error(
        "ChaosEngine::shrink: the plan does not fail the scenario");
  }

  // Phase 1: greedy clause removal to a fixpoint. Deterministic probe order
  // (ascending clause index each pass); every accepted removal restarts the
  // sweep so earlier clauses get re-probed against the smaller plan.
  bool changed = true;
  while (changed && stats.runs < max_runs) {
    changed = false;
    for (std::size_t c = 0; c < clauses.size() && stats.runs < max_runs; ++c) {
      if (!active[c]) continue;
      active[c] = 0;
      if (fails(build())) {
        changed = true;  // clause is irrelevant: keep it removed
      } else {
        active[c] = 1;
      }
    }
  }

  // Phase 2: halve each surviving window (heal_at for windowed faults, the
  // restart time for crash clauses) while the scenario still fails, down to
  // a 100 ms floor.
  constexpr SimDuration kFloor = 100'000;
  for (std::size_t c = 0; c < clauses.size() && stats.runs < max_runs; ++c) {
    if (!active[c]) continue;
    // The knob is the clause's window end: the paired restart if present,
    // else the event's heal_at.
    const std::size_t knob_idx =
        clauses[c].size() == 2 ? clauses[c][1] : clauses[c][0];
    const bool is_restart = clauses[c].size() == 2;
    const SimTime start = work[clauses[c][0]].at;
    for (;;) {
      if (stats.runs >= max_runs) break;
      SimTime& end = is_restart ? work[knob_idx].at : work[knob_idx].heal_at;
      if (end <= start) break;  // point event or never-healing window
      const SimDuration len = end - start;
      if (len / 2 < kFloor) break;
      const SimTime saved = end;
      end = start + len / 2;
      if (!fails(build())) {
        end = saved;
        break;
      }
      ++stats.window_trims;
    }
  }

  ShrinkResult result;
  result.plan = build();
  result.violation = violation;
  stats.final_clauses = 0;
  for (const char a : active) stats.final_clauses += a != 0;
  result.stats = stats;
  return result;
}

// ---------------------------------------------------------------------------
// ChaosRepro
// ---------------------------------------------------------------------------

std::string ChaosRepro::to_json() const {
  std::string plan_json = plan.to_json();
  while (!plan_json.empty() && plan_json.back() == '\n') plan_json.pop_back();
  std::string out = "{\n";
  out += "  \"protocol\": \"" + jsonlite::escape(protocol) + "\",\n";
  out += "  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"violation\": \"" + jsonlite::escape(violation) + "\",\n";
  out += "  \"plan\": " + plan_json + "\n";
  out += "}\n";
  return out;
}

ChaosRepro ChaosRepro::from_json(std::string_view text) {
  const jsonlite::JsonValue doc = jsonlite::parse(text);
  ChaosRepro repro;
  repro.protocol =
      doc.at("protocol", "chaos repro").as_string("chaos repro 'protocol'");
  repro.seed = doc.at("seed", "chaos repro").as_uint("chaos repro 'seed'");
  repro.violation =
      doc.at("violation", "chaos repro").as_string("chaos repro 'violation'");
  repro.plan = net::FaultPlan::from_json_value(doc.at("plan", "chaos repro"));
  return repro;
}

}  // namespace decentnet::sim
