#include "net/faults.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/churn.hpp"
#include "sim/jsonlite.hpp"
#include "sim/telemetry.hpp"

namespace decentnet::net {

namespace {

namespace jsonlite = sim::jsonlite;

std::string event_context(std::size_t index, FaultEvent::Kind kind) {
  return "fault plan event " + std::to_string(index) + " (" +
         fault_kind_name(kind) + ")";
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultPlan builders
// ---------------------------------------------------------------------------

FaultPlan& FaultPlan::partition(
    sim::SimTime at, std::string name,
    std::vector<std::unordered_set<std::uint64_t>> groups,
    sim::SimTime heal_at) {
  FaultEvent ev;
  ev.kind = FaultEvent::Kind::Partition;
  ev.at = at;
  ev.heal_at = heal_at;
  ev.name = std::move(name);
  ev.groups = std::move(groups);
  events_.push_back(std::move(ev));
  return *this;
}

FaultPlan& FaultPlan::crash(sim::SimTime at, std::size_t node) {
  FaultEvent ev;
  ev.kind = FaultEvent::Kind::Crash;
  ev.at = at;
  ev.node = node;
  events_.push_back(std::move(ev));
  return *this;
}

FaultPlan& FaultPlan::restart(sim::SimTime at, std::size_t node) {
  FaultEvent ev;
  ev.kind = FaultEvent::Kind::Restart;
  ev.at = at;
  ev.node = node;
  events_.push_back(std::move(ev));
  return *this;
}

FaultPlan& FaultPlan::latency_penalty(sim::SimTime at, std::size_t node,
                                      sim::SimDuration extra,
                                      sim::SimTime heal_at) {
  FaultEvent ev;
  ev.kind = FaultEvent::Kind::LatencyPenalty;
  ev.at = at;
  ev.heal_at = heal_at;
  ev.node = node;
  ev.duration = extra;
  events_.push_back(std::move(ev));
  return *this;
}

FaultPlan& FaultPlan::bandwidth_degrade(sim::SimTime at, std::size_t node,
                                        double factor, sim::SimTime heal_at) {
  FaultEvent ev;
  ev.kind = FaultEvent::Kind::BandwidthDegrade;
  ev.at = at;
  ev.heal_at = heal_at;
  ev.node = node;
  ev.value = factor;
  events_.push_back(std::move(ev));
  return *this;
}

FaultPlan& FaultPlan::loss_burst(sim::SimTime at, double p,
                                 sim::SimTime heal_at) {
  FaultEvent ev;
  ev.kind = FaultEvent::Kind::LossBurst;
  ev.at = at;
  ev.heal_at = heal_at;
  ev.value = p;
  events_.push_back(std::move(ev));
  return *this;
}

FaultPlan& FaultPlan::duplicate_window(sim::SimTime at, double p,
                                       sim::SimTime heal_at) {
  FaultEvent ev;
  ev.kind = FaultEvent::Kind::DuplicateWindow;
  ev.at = at;
  ev.heal_at = heal_at;
  ev.value = p;
  events_.push_back(std::move(ev));
  return *this;
}

FaultPlan& FaultPlan::reorder_window(sim::SimTime at, sim::SimDuration jitter,
                                     sim::SimTime heal_at) {
  FaultEvent ev;
  ev.kind = FaultEvent::Kind::ReorderWindow;
  ev.at = at;
  ev.heal_at = heal_at;
  ev.duration = jitter;
  events_.push_back(std::move(ev));
  return *this;
}

FaultPlan& FaultPlan::add(FaultEvent ev) {
  events_.push_back(std::move(ev));
  return *this;
}

std::optional<std::string> FaultPlan::validate(std::size_t num_nodes) const {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& ev = events_[i];
    const std::string ctx = event_context(i, ev.kind);
    if (ev.at < 0) {
      return ctx + ": inject time " + std::to_string(ev.at) + "us is negative";
    }
    const bool point_event = ev.kind == FaultEvent::Kind::Crash ||
                             ev.kind == FaultEvent::Kind::Restart;
    if (!point_event && ev.heal_at != 0 && ev.heal_at <= ev.at) {
      return ctx + ": heal time " + std::to_string(ev.heal_at) +
             "us is not after inject time " + std::to_string(ev.at) + "us";
    }
    switch (ev.kind) {
      case FaultEvent::Kind::Partition: {
        if (ev.groups.empty()) return ctx + ": no partition groups";
        std::unordered_set<std::uint64_t> seen;
        for (std::size_t g = 0; g < ev.groups.size(); ++g) {
          if (ev.groups[g].empty()) {
            return ctx + ": group " + std::to_string(g) + " is empty";
          }
          for (const std::uint64_t member : ev.groups[g]) {
            if (!seen.insert(member).second) {
              return ctx + ": node " + std::to_string(member) +
                     " appears in more than one group";
            }
            if (num_nodes != 0 && (member == 0 || member > num_nodes)) {
              return ctx + ": node address " + std::to_string(member) +
                     " out of range [1, " + std::to_string(num_nodes) + "]";
            }
          }
        }
        break;
      }
      case FaultEvent::Kind::Crash:
      case FaultEvent::Kind::Restart:
      case FaultEvent::Kind::LatencyPenalty:
      case FaultEvent::Kind::BandwidthDegrade:
        if (num_nodes != 0 && ev.node >= num_nodes) {
          return ctx + ": node index " + std::to_string(ev.node) +
                 " out of range [0, " + std::to_string(num_nodes - 1) + "]";
        }
        if (ev.kind == FaultEvent::Kind::LatencyPenalty && ev.duration < 0) {
          return ctx + ": penalty " + std::to_string(ev.duration) +
                 "us is negative";
        }
        if (ev.kind == FaultEvent::Kind::BandwidthDegrade &&
            (!std::isfinite(ev.value) || ev.value < 0)) {
          return ctx + ": factor " + std::to_string(ev.value) +
                 " must be finite and >= 0";
        }
        break;
      case FaultEvent::Kind::LossBurst:
      case FaultEvent::Kind::DuplicateWindow:
        if (!(ev.value >= 0 && ev.value <= 1)) {
          return ctx + ": probability " + std::to_string(ev.value) +
                 " out of [0, 1]";
        }
        break;
      case FaultEvent::Kind::ReorderWindow:
        if (ev.duration < 0) {
          return ctx + ": jitter " + std::to_string(ev.duration) +
                 "us is negative";
        }
        break;
    }
  }
  return std::nullopt;
}

std::string FaultPlan::to_json() const {
  std::string out = "{\n  \"version\": 1,\n  \"events\": [";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& ev = events_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"kind\": \"";
    out += fault_kind_name(ev.kind);
    out += "\", \"at\": " + std::to_string(ev.at);
    switch (ev.kind) {
      case FaultEvent::Kind::Partition: {
        out += ", \"heal_at\": " + std::to_string(ev.heal_at);
        out += ", \"name\": \"" + jsonlite::escape(ev.name) + "\"";
        out += ", \"groups\": [";
        for (std::size_t g = 0; g < ev.groups.size(); ++g) {
          // Sets iterate in hash order; sort members so same plan → same
          // bytes (the repro-file currency the chaos engine depends on).
          std::vector<std::uint64_t> members(ev.groups[g].begin(),
                                             ev.groups[g].end());
          std::sort(members.begin(), members.end());
          out += g == 0 ? "[" : ", [";
          for (std::size_t m = 0; m < members.size(); ++m) {
            if (m != 0) out += ", ";
            out += std::to_string(members[m]);
          }
          out += "]";
        }
        out += "]";
        break;
      }
      case FaultEvent::Kind::Crash:
      case FaultEvent::Kind::Restart:
        out += ", \"node\": " + std::to_string(ev.node);
        break;
      case FaultEvent::Kind::LatencyPenalty:
        out += ", \"heal_at\": " + std::to_string(ev.heal_at);
        out += ", \"node\": " + std::to_string(ev.node);
        out += ", \"penalty_us\": " + std::to_string(ev.duration);
        break;
      case FaultEvent::Kind::BandwidthDegrade:
        out += ", \"heal_at\": " + std::to_string(ev.heal_at);
        out += ", \"node\": " + std::to_string(ev.node);
        out += ", \"factor\": " + jsonlite::format_double(ev.value);
        break;
      case FaultEvent::Kind::LossBurst:
      case FaultEvent::Kind::DuplicateWindow:
        out += ", \"heal_at\": " + std::to_string(ev.heal_at);
        out += ", \"p\": " + jsonlite::format_double(ev.value);
        break;
      case FaultEvent::Kind::ReorderWindow:
        out += ", \"heal_at\": " + std::to_string(ev.heal_at);
        out += ", \"jitter_us\": " + std::to_string(ev.duration);
        break;
    }
    out += "}";
  }
  out += events_.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

FaultPlan FaultPlan::from_json(std::string_view text) {
  return from_json_value(jsonlite::parse(text));
}

FaultPlan FaultPlan::from_json_value(const jsonlite::JsonValue& doc) {
  const std::int64_t version =
      doc.at("version", "fault plan").as_int("fault plan 'version'");
  if (version != 1) {
    throw std::invalid_argument("fault plan: unsupported version " +
                                std::to_string(version) + " (expected 1)");
  }
  FaultPlan plan;
  const auto& events =
      doc.at("events", "fault plan").as_array("fault plan 'events'");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string base = "fault plan event " + std::to_string(i);
    const jsonlite::JsonValue& e = events[i];
    const std::string& kind_name =
        e.at("kind", base).as_string(base + " 'kind'");
    const std::optional<FaultEvent::Kind> kind =
        fault_kind_from_name(kind_name);
    if (!kind) {
      throw std::invalid_argument(
          base + ": unknown kind '" + kind_name +
          "' (expected partition|crash|restart|latency|bandwidth|loss|"
          "duplicate|reorder)");
    }
    const std::string ctx = event_context(i, *kind);
    FaultEvent ev;
    ev.kind = *kind;
    ev.at = e.at("at", ctx).as_int(ctx + " 'at'");
    const bool point_event = ev.kind == FaultEvent::Kind::Crash ||
                             ev.kind == FaultEvent::Kind::Restart;
    if (!point_event) ev.heal_at = e.at("heal_at", ctx).as_int(ctx + " 'heal_at'");
    switch (ev.kind) {
      case FaultEvent::Kind::Partition: {
        ev.name = e.at("name", ctx).as_string(ctx + " 'name'");
        const auto& groups =
            e.at("groups", ctx).as_array(ctx + " 'groups'");
        for (std::size_t g = 0; g < groups.size(); ++g) {
          const std::string gctx = ctx + " group " + std::to_string(g);
          std::unordered_set<std::uint64_t> members;
          for (const jsonlite::JsonValue& m : groups[g].as_array(gctx)) {
            members.insert(m.as_uint(gctx + " member"));
          }
          ev.groups.push_back(std::move(members));
        }
        break;
      }
      case FaultEvent::Kind::Crash:
      case FaultEvent::Kind::Restart:
        ev.node = e.at("node", ctx).as_uint(ctx + " 'node'");
        break;
      case FaultEvent::Kind::LatencyPenalty:
        ev.node = e.at("node", ctx).as_uint(ctx + " 'node'");
        ev.duration = e.at("penalty_us", ctx).as_int(ctx + " 'penalty_us'");
        break;
      case FaultEvent::Kind::BandwidthDegrade:
        ev.node = e.at("node", ctx).as_uint(ctx + " 'node'");
        ev.value = e.at("factor", ctx).as_number(ctx + " 'factor'");
        break;
      case FaultEvent::Kind::LossBurst:
      case FaultEvent::Kind::DuplicateWindow:
        ev.value = e.at("p", ctx).as_number(ctx + " 'p'");
        break;
      case FaultEvent::Kind::ReorderWindow:
        ev.duration = e.at("jitter_us", ctx).as_int(ctx + " 'jitter_us'");
        break;
    }
    plan.events_.push_back(std::move(ev));
  }
  if (const std::optional<std::string> problem = plan.validate()) {
    throw std::invalid_argument(*problem);
  }
  return plan;
}

const char* fault_kind_name(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::Partition: return "partition";
    case FaultEvent::Kind::Crash: return "crash";
    case FaultEvent::Kind::Restart: return "restart";
    case FaultEvent::Kind::LatencyPenalty: return "latency";
    case FaultEvent::Kind::BandwidthDegrade: return "bandwidth";
    case FaultEvent::Kind::LossBurst: return "loss";
    case FaultEvent::Kind::DuplicateWindow: return "duplicate";
    case FaultEvent::Kind::ReorderWindow: return "reorder";
  }
  return "unknown";
}

std::optional<FaultEvent::Kind> fault_kind_from_name(std::string_view name) {
  using Kind = FaultEvent::Kind;
  for (const Kind k :
       {Kind::Partition, Kind::Crash, Kind::Restart, Kind::LatencyPenalty,
        Kind::BandwidthDegrade, Kind::LossBurst, Kind::DuplicateWindow,
        Kind::ReorderWindow}) {
    if (name == fault_kind_name(k)) return k;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// FaultScheduler
// ---------------------------------------------------------------------------

FaultScheduler::FaultScheduler(Network& net, FaultPlan plan,
                               FaultTargets targets)
    : net_(net),
      sim_(net.simulator()),
      plan_(std::move(plan)),
      targets_(std::move(targets)),
      m_injected_(net.metrics().counter("net/fault/injected")),
      m_healed_(net.metrics().counter("net/fault/healed")),
      m_partitions_(net.metrics().counter("net/fault/partitions")),
      m_crashes_(net.metrics().counter("net/fault/crashes")),
      m_restarts_(net.metrics().counter("net/fault/restarts")),
      m_link_faults_(net.metrics().counter("net/fault/link_faults")),
      m_window_faults_(net.metrics().counter("net/fault/window_faults")),
      saved_link_(plan_.events().size()),
      saved_loss_(plan_.events().size(), 0) {}

NodeId FaultScheduler::addr(std::size_t node) const {
  return node < targets_.nodes.size() ? targets_.nodes[node] : NodeId{0};
}

void FaultScheduler::start() {
  if (started_) return;
  started_ = true;
  const auto& events = plan_.events();
  scheduled_.reserve(events.size() * 2);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& ev = events[i];
    scheduled_.push_back(sim_.schedule_at(
        ev.at, [this, i] { inject(plan_.events()[i], i); }, "fault/inject"));
    const bool point_event = ev.kind == FaultEvent::Kind::Crash ||
                             ev.kind == FaultEvent::Kind::Restart;
    if (!point_event && ev.heal_at > ev.at) {
      scheduled_.push_back(sim_.schedule_at(
          ev.heal_at, [this, i] { heal(plan_.events()[i], i); },
          "fault/heal"));
    }
  }
}

void FaultScheduler::stop() {
  for (sim::EventHandle& h : scheduled_) h.cancel();
  scheduled_.clear();
}

void FaultScheduler::register_telemetry(sim::Telemetry& telemetry) {
  Network* const net = &net_;
  telemetry.add_gauge("faults/partitions_active", 0, [net](sim::SimTime) {
    return static_cast<double>(net->partition_count());
  });
  telemetry.add_rate("faults/injected", 0, m_injected_);
  telemetry.add_rate("faults/healed", 0, m_healed_);
}

void FaultScheduler::trace(const char* kind, const FaultEvent& ev,
                           std::size_t index) {
  if (sim::TraceSink* const tr = sim_.trace()) {
    tr->record({sim_.now(), kind, fault_kind_name(ev.kind), index,
                ev.node, ev.heal_at > 0 ? static_cast<std::uint64_t>(ev.heal_at)
                                        : 0,
                0});
  }
}

void FaultScheduler::inject(const FaultEvent& ev, std::size_t index) {
  ++injected_;
  m_injected_.add();
  trace("fault", ev, index);
  switch (ev.kind) {
    case FaultEvent::Kind::Partition:
      m_partitions_.add();
      net_.add_partition(ev.name, ev.groups);
      break;
    case FaultEvent::Kind::Crash:
      m_crashes_.add();
      // Hold churn first: fault-crash is authoritative, so no churn
      // transition may revive the node before the plan's restart.
      if (targets_.churn) targets_.churn->hold_offline(ev.node);
      if (targets_.crash) targets_.crash(ev.node);
      break;
    case FaultEvent::Kind::Restart:
      m_restarts_.add();
      if (targets_.restart) targets_.restart(ev.node);
      if (targets_.churn) targets_.churn->release(ev.node, /*online_now=*/true);
      break;
    case FaultEvent::Kind::LatencyPenalty:
      m_link_faults_.add();
      net_.set_latency_penalty(addr(ev.node), ev.duration);
      break;
    case FaultEvent::Kind::BandwidthDegrade: {
      m_link_faults_.add();
      const NodeId id = addr(ev.node);
      // Save the whole LinkSpec and scale only the capacities; the queue
      // depth rides along unchanged and heal restores the spec verbatim.
      saved_link_[index] = net_.link(id);
      LinkSpec degraded = saved_link_[index];
      degraded.up_bps *= ev.value;
      degraded.down_bps *= ev.value;
      net_.set_link(id, degraded);
      break;
    }
    case FaultEvent::Kind::LossBurst:
      m_window_faults_.add();
      saved_loss_[index] = net_.drop_probability();
      net_.set_drop_probability(ev.value);
      break;
    case FaultEvent::Kind::DuplicateWindow:
      m_window_faults_.add();
      net_.set_duplicate_probability(ev.value);
      break;
    case FaultEvent::Kind::ReorderWindow:
      m_window_faults_.add();
      net_.set_reorder_jitter(ev.duration);
      break;
  }
}

void FaultScheduler::heal(const FaultEvent& ev, std::size_t index) {
  ++healed_;
  m_healed_.add();
  trace("heal", ev, index);
  switch (ev.kind) {
    case FaultEvent::Kind::Partition:
      net_.remove_partition(ev.name);
      break;
    case FaultEvent::Kind::LatencyPenalty:
      net_.set_latency_penalty(addr(ev.node), 0);
      break;
    case FaultEvent::Kind::BandwidthDegrade:
      net_.set_link(addr(ev.node), saved_link_[index]);
      break;
    case FaultEvent::Kind::LossBurst:
      net_.set_drop_probability(saved_loss_[index]);
      break;
    case FaultEvent::Kind::DuplicateWindow:
      net_.set_duplicate_probability(0);
      break;
    case FaultEvent::Kind::ReorderWindow:
      net_.set_reorder_jitter(0);
      break;
    case FaultEvent::Kind::Crash:
    case FaultEvent::Kind::Restart:
      break;  // point events never heal
  }
}

}  // namespace decentnet::net
