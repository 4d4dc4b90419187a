#include "trace_analysis.hpp"

#include <algorithm>
#include <charconv>
#include <iomanip>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "sim/jsonlite.hpp"

namespace decentnet::tracetool {

namespace jl = sim::jsonlite;

namespace {

/// Call `fn(obj)` for every non-blank line of `in`, parsed as one JSON
/// object. A malformed line throws std::runtime_error naming the stream
/// (`what`) and the 1-based line number; type errors name the field.
template <typename Fn>
void for_each_object(std::istream& in, const char* what, Fn fn) {
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      const jl::JsonValue obj = jl::parse(line);
      if (obj.kind != jl::JsonValue::Kind::Object) {
        throw std::invalid_argument("expected a JSON object");
      }
      fn(obj);
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(std::string(what) + " line " +
                               std::to_string(lineno) + ": " + e.what());
    }
  }
}

}  // namespace

std::vector<Record> parse_jsonl(std::istream& in) {
  // Known fields are typed; unknown fields are tolerated and dropped.
  std::vector<Record> out;
  for_each_object(in, "trace", [&](const jl::JsonValue& obj) {
    Record& rec = out.emplace_back();
    for (const auto& [key, v] : obj.members) {
      if (key == "kind") rec.kind = v.as_string(key);
      else if (key == "tag") rec.tag = v.as_string(key);
      else if (key == "t") rec.t = static_cast<std::int64_t>(v.as_uint(key));
      else if (key == "id") rec.id = v.as_uint(key);
      else if (key == "a") rec.a = v.as_uint(key);
      else if (key == "b") rec.b = v.as_uint(key);
      else if (key == "bytes") rec.bytes = v.as_uint(key);
      else if (key == "queue_us") rec.queue_us = v.as_uint(key);
    }
  });
  return out;
}

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

Summary summarize(const std::vector<Record>& records) {
  Summary s;
  s.records = records.size();
  if (!records.empty()) {
    s.t_first = records.front().t;
    s.t_last = records.front().t;
  }
  for (const Record& r : records) {
    s.t_first = std::min(s.t_first, r.t);
    s.t_last = std::max(s.t_last, r.t);
    ++s.by_kind[r.kind];
    if (!r.tag.empty()) ++s.by_kind_tag[{r.kind, r.tag}];
  }
  return s;
}

std::string summary_text(const Summary& s) {
  std::ostringstream os;
  os << "records: " << s.records << "\n";
  os << "time_span_us: [" << s.t_first << ", " << s.t_last << "]\n";
  os << "by kind:\n";
  for (const auto& [kind, n] : s.by_kind) {
    os << "  " << std::left << std::setw(10) << kind << std::right
       << std::setw(12) << n << "\n";
  }
  bool header = false;
  for (const auto& [key, n] : s.by_kind_tag) {
    if (!header) {
      os << "by kind/tag:\n";
      header = true;
    }
    os << "  " << std::left << std::setw(28) << (key.first + "/" + key.second)
       << std::right << std::setw(12) << n << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Propagation trees
// ---------------------------------------------------------------------------

std::vector<Tree> build_trees(const std::vector<Record>& records) {
  std::vector<Hop> hops;
  std::unordered_map<std::uint64_t, std::size_t> hop_by_seq;  // msg_seq -> idx

  // Single pass: a non-root "span" record binds to the "send" immediately
  // before it; its arrival is the earliest "net/deliver" schedule before the
  // next "send" (a duplicated delivery schedules the copy first, so min()).
  // A backwards time jump means a fresh simulator appended to the same file:
  // bump the segment and forget per-run state.
  const Record* last_send = nullptr;
  std::size_t awaiting = static_cast<std::size_t>(-1);  // hop idx wanting sched
  std::uint32_t segment = 0;
  std::int64_t prev_t = 0;
  for (const Record& r : records) {
    if (r.t < prev_t) {
      ++segment;
      last_send = nullptr;
      awaiting = static_cast<std::size_t>(-1);
      hop_by_seq.clear();
    }
    prev_t = r.t;
    if (r.kind == "send") {
      last_send = &r;
      awaiting = static_cast<std::size_t>(-1);
    } else if (r.kind == "span") {
      Hop h;
      h.segment = segment;
      h.id = static_cast<std::uint32_t>(r.id);
      h.root = static_cast<std::uint32_t>(r.a);
      h.parent = static_cast<std::uint32_t>(r.b);
      h.depth = static_cast<std::uint32_t>(r.bytes);
      h.send_t = r.t;
      h.queue_us = r.queue_us;
      if (r.tag == "root") {
        h.virtual_root = true;
      } else if (last_send != nullptr) {
        h.msg_seq = last_send->id;
        h.from = last_send->a;
        h.to = last_send->b;
        h.bytes = last_send->bytes;
        hop_by_seq.emplace(h.msg_seq, hops.size());
        awaiting = hops.size();
      }
      hops.push_back(h);
    } else if (r.kind == "sched" && r.tag == "net/deliver" &&
               awaiting != static_cast<std::size_t>(-1)) {
      Hop& h = hops[awaiting];
      const auto fire = static_cast<std::int64_t>(r.a);
      if (h.arrive_t < 0 || fire < h.arrive_t) h.arrive_t = fire;
    } else if (r.kind == "drop") {
      const auto it = hop_by_seq.find(r.id);
      if (it != hop_by_seq.end()) hops[it->second].dropped = true;
    }
  }

  // Partition into trees (keyed by segment + root hop id).
  std::map<std::pair<std::uint32_t, std::uint32_t>, Tree> by_root;
  for (const Hop& h : hops) {
    Tree& tree = by_root[{h.segment, h.root}];
    tree.segment = h.segment;
    tree.root = h.root;
    tree.hops.push_back(h);
  }

  // Derive per-tree stats.
  for (auto& [key, tree] : by_root) {
    std::unordered_map<std::uint32_t, std::uint32_t> children;  // parent->n
    const Hop* root_hop = nullptr;
    for (const Hop& h : tree.hops) {
      if (h.id == tree.root) root_hop = &h;
      if (h.virtual_root) continue;
      ++tree.edges;
      if (h.dropped) ++tree.dropped; else ++tree.delivered;
      tree.depth_max = std::max(tree.depth_max, h.depth);
      tree.queue_max_us = std::max(tree.queue_max_us, h.queue_us);
      if (h.parent != 0) {
        tree.fanout_max = std::max(tree.fanout_max, ++children[h.parent]);
      }
    }
    // Origin: a virtual root names no node, so borrow the first child's
    // sender; a real root hop is itself a send from the origin.
    if (root_hop != nullptr) {
      tree.t0 = root_hop->send_t;
      if (!root_hop->virtual_root) {
        tree.root_node = root_hop->from;
        tree.root_node_known = true;
      } else {
        for (const Hop& h : tree.hops) {
          if (!h.virtual_root && h.parent == tree.root) {
            tree.root_node = h.from;
            tree.root_node_known = true;
            break;
          }
        }
      }
    } else if (!tree.hops.empty()) {
      tree.t0 = tree.hops.front().send_t;  // truncated trace: best effort
    }

    // Coverage: origin at t0, then each delivered hop covers its receiver
    // at arrival; first arrival per node wins.
    std::unordered_map<std::uint64_t, std::int64_t> cover;
    if (tree.root_node_known) cover[tree.root_node] = tree.t0;
    for (const Hop& h : tree.hops) {
      if (h.virtual_root || h.dropped || h.arrive_t < 0) continue;
      const auto it = cover.find(h.to);
      if (it == cover.end()) cover.emplace(h.to, h.arrive_t);
      else it->second = std::min(it->second, h.arrive_t);
    }
    tree.covered = cover.size();
    if (tree.covered > 0) {
      std::vector<std::int64_t> times;
      times.reserve(cover.size());
      for (const auto& [node, t] : cover) times.push_back(t);
      std::sort(times.begin(), times.end());
      const std::size_t pop = times.size();
      const std::size_t k = (pop * 9 + 9) / 10;  // ceil(0.9 * pop)
      tree.t90 = times[k - 1] - tree.t0;
      tree.t100 = times.back() - tree.t0;
    }
  }

  std::vector<Tree> out;
  out.reserve(by_root.size());
  for (auto& [key, tree] : by_root) out.push_back(std::move(tree));
  std::sort(out.begin(), out.end(), [](const Tree& x, const Tree& y) {
    if (x.edges != y.edges) return x.edges > y.edges;
    if (x.segment != y.segment) return x.segment < y.segment;
    return x.root < y.root;
  });
  return out;
}

std::string tree_stats_text(const std::vector<Tree>& trees,
                            std::size_t top_n) {
  std::ostringstream os;
  const std::size_t shown = std::min(top_n, trees.size());
  os << "trees: " << trees.size() << " (showing " << shown
     << ", by edges)\n";
  os << std::right << std::setw(4) << "seg" << std::setw(8) << "root"
     << std::setw(10) << "origin"
     << std::setw(8) << "edges" << std::setw(10) << "delivered"
     << std::setw(8) << "dropped" << std::setw(8) << "covered"
     << std::setw(6) << "depth" << std::setw(7) << "fanout"
     << std::setw(10) << "qmax_us"
     << std::setw(10) << "t90_us" << std::setw(10) << "t100_us" << "\n";
  for (std::size_t i = 0; i < shown; ++i) {
    const Tree& t = trees[i];
    os << std::setw(4) << t.segment << std::setw(8) << t.root;
    if (t.root_node_known) os << std::setw(10) << t.root_node;
    else os << std::setw(10) << "?";
    os << std::setw(8) << t.edges << std::setw(10) << t.delivered
       << std::setw(8) << t.dropped << std::setw(8) << t.covered
       << std::setw(6) << t.depth_max << std::setw(7) << t.fanout_max
       << std::setw(10) << t.queue_max_us;
    if (t.t90 >= 0) os << std::setw(10) << t.t90;
    else os << std::setw(10) << "-";
    if (t.t100 >= 0) os << std::setw(10) << t.t100;
    else os << std::setw(10) << "-";
    os << "\n";
  }
  return os.str();
}

std::string chrome_trace_json(const std::vector<Tree>& trees) {
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const Tree& t : trees) {
    // pid must be unique per tree; fold the segment in without disturbing
    // the common single-segment case where pid == root hop id.
    const std::uint64_t pid =
        static_cast<std::uint64_t>(t.segment) * 100000000ULL + t.root;
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << pid
       << ",\"name\":\"process_name\",\"args\":{\"name\":\"seg " << t.segment
       << " tree " << t.root;
    if (t.root_node_known) os << " origin node " << t.root_node;
    os << "\"}}";
    for (const Hop& h : t.hops) {
      if (h.virtual_root) continue;
      const std::int64_t dur = h.arrive_t >= 0 ? h.arrive_t - h.send_t : 0;
      sep();
      os << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << h.depth
         << ",\"ts\":" << h.send_t << ",\"dur\":" << dur << ",\"name\":\""
         << h.from << "->" << h.to << "\",\"cat\":\"span\",\"args\":{\"hop\":"
         << h.id << ",\"parent\":" << h.parent << ",\"seq\":" << h.msg_seq
         << ",\"bytes\":" << h.bytes << ",\"queue_us\":" << h.queue_us
         << ",\"dropped\":" << (h.dropped ? 1 : 0) << "}}";
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Telemetry timelines
// ---------------------------------------------------------------------------

namespace {

/// Shortest round-trip double formatting — the exact bytes the sink wrote,
/// so the CSV export round-trips values losslessly.
std::string fmt_double(double v) {
  char tmp[32];
  const auto res = std::to_chars(tmp, tmp + sizeof(tmp), v);
  if (res.ec != std::errc()) return "0";
  return std::string(tmp, res.ptr);
}

/// 6-significant-digit form for the stats table: fits the columns, still a
/// deterministic function of the value (to_chars, not locale-aware printf).
std::string fmt_stat(double v) {
  char tmp[32];
  const auto res =
      std::to_chars(tmp, tmp + sizeof(tmp), v, std::chars_format::general, 6);
  if (res.ec != std::errc()) return "0";
  return std::string(tmp, res.ptr);
}

}  // namespace

std::vector<Sample> parse_series_jsonl(std::istream& in) {
  // Same discipline as parse_jsonl, but "v" is a full double (the sink
  // writes shortest round-trip form: "3", "0.5", "1e+20", negatives too).
  std::vector<Sample> out;
  std::uint32_t segment = 0;
  std::int64_t prev_t = 0;
  for_each_object(in, "series", [&](const jl::JsonValue& obj) {
    Sample& s = out.emplace_back();
    for (const auto& [key, v] : obj.members) {
      if (key == "series") s.series = v.as_string(key);
      else if (key == "t") s.t = static_cast<std::int64_t>(v.as_number(key));
      else if (key == "shard") {
        s.shard = static_cast<std::uint32_t>(v.as_uint(key));
      }
      else if (key == "v") s.v = v.as_number(key);
    }
    if (s.t < prev_t) ++segment;  // fresh run appended to the same file
    prev_t = s.t;
    s.segment = segment;
  });
  return out;
}

std::vector<SeriesStats> timeline_stats(const std::vector<Sample>& samples) {
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::string>;
  std::map<Key, std::vector<const Sample*>> groups;
  for (const Sample& s : samples) {
    groups[{s.segment, s.shard, s.series}].push_back(&s);
  }

  std::vector<SeriesStats> out;
  out.reserve(groups.size());
  for (const auto& [key, pts] : groups) {
    SeriesStats st;
    st.segment = std::get<0>(key);
    st.shard = std::get<1>(key);
    st.series = std::get<2>(key);
    st.count = pts.size();
    st.first = pts.front()->v;
    st.last = pts.back()->v;
    st.t_first = pts.front()->t;
    st.t_last = pts.back()->t;
    st.min = st.max = st.first;
    double sum = 0;
    std::vector<double> sorted;
    sorted.reserve(pts.size());
    for (const Sample* p : pts) {
      st.min = std::min(st.min, p->v);
      st.max = std::max(st.max, p->v);
      sum += p->v;
      sorted.push_back(p->v);
    }
    st.mean = sum / static_cast<double>(pts.size());
    std::sort(sorted.begin(), sorted.end());
    const std::size_t k = (sorted.size() * 99 + 99) / 100;  // ceil(0.99 n)
    st.p99 = sorted[k - 1];

    // Ramp: longest maximal nondecreasing run that spans >= 4 samples and
    // multiplies the value by >= 4x (0 -> anything positive counts). Ties
    // go to the earliest run.
    std::size_t run_start = 0;
    std::size_t best_len = 0;
    const auto consider = [&](std::size_t lo, std::size_t hi) {  // [lo, hi]
      const std::size_t len = hi - lo + 1;
      if (len < 4 || len <= best_len) return;
      const double from = pts[lo]->v;
      const double to = pts[hi]->v;
      if (from > 0 ? to < 4 * from : to <= 0) return;
      best_len = len;
      st.ramp = true;
      st.ramp_t0 = pts[lo]->t;
      st.ramp_t1 = pts[hi]->t;
      st.ramp_from = from;
      st.ramp_to = to;
    };
    for (std::size_t i = 1; i < pts.size(); ++i) {
      if (pts[i]->v < pts[i - 1]->v) {
        consider(run_start, i - 1);
        run_start = i;
      }
    }
    consider(run_start, pts.size() - 1);
    out.push_back(std::move(st));
  }
  return out;
}

std::string timeline_text(const std::vector<SeriesStats>& stats) {
  std::ostringstream os;
  os << "series: " << stats.size() << "\n";
  os << std::right << std::setw(4) << "seg" << std::setw(6) << "shard"
     << "  " << std::left << std::setw(26) << "series" << std::right
     << std::setw(7) << "count" << std::setw(13) << "min" << std::setw(13)
     << "mean" << std::setw(13) << "max" << std::setw(13) << "p99"
     << std::setw(13) << "first" << std::setw(13) << "last" << "\n";
  for (const SeriesStats& st : stats) {
    os << std::right << std::setw(4) << st.segment << std::setw(6) << st.shard
       << "  " << std::left << std::setw(26) << st.series << std::right
       << std::setw(7) << st.count << std::setw(13) << fmt_stat(st.min)
       << std::setw(13) << fmt_stat(st.mean) << std::setw(13)
       << fmt_stat(st.max) << std::setw(13) << fmt_stat(st.p99)
       << std::setw(13) << fmt_stat(st.first) << std::setw(13)
       << fmt_stat(st.last) << "\n";
  }
  bool header = false;
  for (const SeriesStats& st : stats) {
    if (!st.ramp) continue;
    if (!header) {
      os << "ramps:\n";
      header = true;
    }
    os << "  seg " << st.segment << " shard " << st.shard << " " << st.series
       << ": " << fmt_stat(st.ramp_from) << " -> " << fmt_stat(st.ramp_to)
       << " over [" << st.ramp_t0 << ", " << st.ramp_t1 << "] us\n";
  }
  return os.str();
}

std::string timeline_fault_text(const std::vector<Sample>& samples,
                                const std::vector<Record>& trace) {
  // Fault windows, with the same segment convention as the series stream.
  struct Window {
    std::uint32_t segment = 0;
    std::string tag;
    std::uint64_t id = 0;    // plan event index
    std::uint64_t node = 0;  // target node index
    std::int64_t t0 = 0;     // inject time
    std::int64_t t1 = -1;    // heal time; -1 = no heal seen
  };
  std::vector<Window> windows;
  std::uint32_t segment = 0;
  std::int64_t prev_t = 0;
  for (const Record& r : trace) {
    if (r.t < prev_t) ++segment;
    prev_t = r.t;
    if (r.kind == "fault") {
      Window w;
      w.segment = segment;
      w.tag = r.tag;
      w.id = r.id;
      w.node = r.a;
      w.t0 = r.t;
      if (r.b != 0) w.t1 = static_cast<std::int64_t>(r.b);  // planned heal
      windows.push_back(std::move(w));
    } else if (r.kind == "heal") {
      for (auto it = windows.rbegin(); it != windows.rend(); ++it) {
        if (it->segment == segment && it->id == r.id) {
          it->t1 = r.t;  // actual heal wins over the planned time
          break;
        }
      }
    }
  }
  if (windows.empty()) return "";

  // Per-segment end time (closes never-healed windows) and per-series
  // sample groups.
  std::map<std::uint32_t, std::int64_t> seg_end;
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::string>;
  std::map<Key, std::vector<const Sample*>> groups;
  for (const Sample& s : samples) {
    auto [it, inserted] = seg_end.emplace(s.segment, s.t);
    if (!inserted) it->second = std::max(it->second, s.t);
    groups[{s.segment, s.shard, s.series}].push_back(&s);
  }
  for (Window& w : windows) {
    if (w.t1 >= 0) continue;
    const auto it = seg_end.find(w.segment);
    w.t1 = it != seg_end.end() ? it->second : w.t0;
  }

  const auto in_any_window = [&](std::uint32_t seg, std::int64_t t) {
    for (const Window& w : windows) {
      if (w.segment == seg && t >= w.t0 && t <= w.t1) return true;
    }
    return false;
  };

  std::ostringstream os;
  os << "fault windows: " << windows.size() << "\n";
  for (const Window& w : windows) {
    os << "  seg " << w.segment << " " << w.tag << " id " << w.id << " node "
       << w.node << " [" << w.t0 << ", " << w.t1 << "] us\n";
    for (const auto& [key, pts] : groups) {
      if (std::get<0>(key) != w.segment) continue;
      // Baseline: median of the samples outside every fault window of this
      // segment (the series' quiet level). Window max above 2x baseline —
      // or above zero when the baseline is zero — is an excursion.
      std::vector<double> outside;
      double win_max = 0;
      bool in_window = false;
      for (const Sample* p : pts) {
        if (p->t >= w.t0 && p->t <= w.t1) {
          win_max = in_window ? std::max(win_max, p->v) : p->v;
          in_window = true;
        }
        if (!in_any_window(std::get<0>(key), p->t)) outside.push_back(p->v);
      }
      if (!in_window) continue;
      double baseline = 0;
      if (!outside.empty()) {
        std::sort(outside.begin(), outside.end());
        baseline = outside[(outside.size() - 1) / 2];
      }
      const bool excursion =
          baseline > 0 ? win_max > 2 * baseline : win_max > 0;
      if (!excursion) continue;
      os << "    excursion shard " << std::get<1>(key) << " "
         << std::get<2>(key) << ": max " << fmt_stat(win_max)
         << " vs baseline " << fmt_stat(baseline) << "\n";
    }
  }
  return os.str();
}

std::string timeline_csv(const std::vector<Sample>& samples) {
  std::string out = "segment,t_us,shard,series,v\n";
  for (const Sample& s : samples) {
    out += std::to_string(s.segment);
    out += ',';
    out += std::to_string(s.t);
    out += ',';
    out += std::to_string(s.shard);
    out += ',';
    out += s.series;
    out += ',';
    out += fmt_double(s.v);
    out += '\n';
  }
  return out;
}

std::string timeline_chrome_json(const std::vector<Sample>& samples) {
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  for (const Sample& s : samples) {
    if (!first) os << ",\n";
    first = false;
    // Counters are keyed by (pid, name): fold the shard into the name so
    // per-shard series render as separate tracks.
    os << "{\"ph\":\"C\",\"pid\":" << s.segment << ",\"tid\":" << s.shard
       << ",\"ts\":" << s.t << ",\"name\":\"" << s.series;
    if (s.shard != 0) os << "#" << s.shard;
    os << "\",\"args\":{\"v\":" << fmt_double(s.v) << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

}  // namespace decentnet::tracetool
