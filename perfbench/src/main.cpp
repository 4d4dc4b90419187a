// decentbench: runs ONE pass of one benchmark workload and prints its
// report as a single JSON line on stdout.
//
//   decentbench --workload NAME --seed N [--traced] [--small] [--threads T]
//
// Each pass is its own process so peak RSS belongs to that workload alone.
// perfbench/run.py repeats passes, takes medians and checks the outputs;
// see perfbench/README.md for the workloads and metrics.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "probe.hpp"
#include "sim/metrics.hpp"

namespace decentbench {

// Helpers declared in probe.hpp and shared by the workloads.

std::uint64_t counter_value(const sim::MetricRegistry& reg,
                            const std::string& name) {
  const auto it = reg.counters().find(name);
  return it == reg.counters().end() ? 0 : it->second.value();
}

void add_net_layer(Report& rep, const sim::Profiler& prof,
                   const net::Network& netw, std::uint64_t dropped_offline,
                   const std::vector<Recorder>& recs) {
  std::uint64_t handler_ns = 0, handled = 0, churn_ns = 0, churns = 0;
  for (const Recorder& r : recs) {
    for (const Samples& s : r.by_kind) {
      handler_ns += s.total_ns();
      handled += s.count();
    }
    churn_ns += r.churn.total_ns();
    churns += r.churn.count();
  }
  const auto deliver = tag_stats(prof, "net/deliver");
  const auto messages = static_cast<double>(netw.messages_sent());
  rep.metric("sim.events", static_cast<double>(rep.events));
  rep.metric("net.messages", messages);
  const double own_ns = deliver.wall_ns > handler_ns
                            ? static_cast<double>(deliver.wall_ns - handler_ns)
                            : 0.0;
  rep.metric("net.deliver_ns",
             ratio(own_ns, static_cast<double>(deliver.events)));
  rep.metric("net.dropped_offline_frac",
             ratio(static_cast<double>(dropped_offline), messages));
  rep.metric("net.churn_ns", ratio(static_cast<double>(churn_ns),
                                   static_cast<double>(churns)));
  // Every delivery either found its host offline or went through a proxy;
  // anything else means a node re-attached itself without its proxy.
  if (deliver.events != handled + dropped_offline) {
    rep.violations.push_back("timing proxy missed " +
                             std::to_string(deliver.events) + " - " +
                             std::to_string(handled) + " - " +
                             std::to_string(dropped_offline) + " deliveries");
  }
}

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: decentbench --workload "
               "{pow_chain|pbft_commit|kad_lookup|gossip_sharded} --seed N "
               "[--traced] [--small] [--threads T]\n");
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KB
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_object(
    const std::vector<std::pair<std::string, double>>& kv) {
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) out += ",";
    out += json_string(kv[i].first) + ":" + json_number(kv[i].second);
  }
  return out + "}";
}

}  // namespace
}  // namespace decentbench

int main(int argc, char** argv) {
  using namespace decentbench;
  Options o;
  // Half the CPUs, at most two: every window of the sharded kernel waits for
  // its slowest thread, and with a thread on every CPU of a shared host one
  // briefly slowed CPU stalls them all (pass times spread 3-4x wider at
  // 4 threads than at 2 on a 4-vCPU VM). Spare CPUs let the scheduler move
  // a thread off a slow one.
  o.threads =
      std::max(1u, std::min(2u, std::thread::hardware_concurrency() / 2));
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      o.seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        usage();
        return 2;
      }
      have_seed = true;
    } else if (a == "--threads" && has_value) {
      char* end = nullptr;
      o.threads = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || o.threads == 0) {
        usage();
        return 2;
      }
    } else if (a == "--traced") {
      o.traced = true;
    } else if (a == "--small") {
      o.small = true;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_seed) {
    usage();
    return 2;
  }

  Report rep;
  try {
    if (o.workload == "pow_chain") {
      rep = run_pow_chain(o);
    } else if (o.workload == "pbft_commit") {
      rep = run_pbft_commit(o);
    } else if (o.workload == "kad_lookup") {
      rep = run_kad_lookup(o);
    } else if (o.workload == "gossip_sharded") {
      rep = run_gossip_sharded(o);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "decentbench: %s\n", e.what());
    return 1;
  }

  std::string violations = "[";
  for (std::size_t i = 0; i < rep.violations.size(); ++i) {
    if (i > 0) violations += ",";
    violations += json_string(rep.violations[i]);
  }
  violations += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"traced\":%s,\"digest\":%s,"
      "\"violations\":%s,\"ops\":%llu,\"ops_failed\":%llu,\"events\":%llu,"
      "\"setup_s\":%s,\"run_s\":%s,\"wall_s\":%s,\"peak_rss_mb\":%s,"
      "\"stats\":%s,\"layer\":%s}\n",
      json_string(o.workload).c_str(),
      static_cast<unsigned long long>(o.seed), o.traced ? "true" : "false",
      json_string(rep.digest).c_str(), violations.c_str(),
      static_cast<unsigned long long>(rep.ops),
      static_cast<unsigned long long>(rep.ops_failed),
      static_cast<unsigned long long>(rep.events),
      json_number(rep.setup_s).c_str(), json_number(rep.run_s).c_str(),
      json_number(rep.wall_s).c_str(), json_number(peak_rss_mb()).c_str(),
      json_object(rep.stats).c_str(), json_object(rep.layer).c_str());
  return 0;
}
