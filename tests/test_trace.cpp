// Trace subsystem tests: record kinds from the kernel and the network, the
// detached (post) fast path, and the determinism contract — two runs from
// the same seed must produce byte-identical JSONL.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace ds = decentnet::sim;
namespace dn = decentnet::net;

namespace {

/// Collects records in memory for structural assertions.
class VecSink final : public ds::TraceSink {
 public:
  struct Rec {
    ds::SimTime t;
    std::string kind;
    std::string tag;
    std::uint64_t id, a, b, bytes;
  };
  void record(const ds::TraceRecord& r) override {
    recs.push_back({r.t, r.kind, r.tag ? r.tag : "", r.id, r.a, r.b,
                    r.bytes});
  }
  std::size_t count(const std::string& kind) const {
    std::size_t n = 0;
    for (const auto& r : recs) {
      if (r.kind == kind) ++n;
    }
    return n;
  }
  std::vector<Rec> recs;
};

struct Echo final : dn::Host {
  int got = 0;
  void handle_message(const dn::Message&) override { ++got; }
};

}  // namespace

TEST(Trace, KernelEmitsSchedFireCancel) {
  ds::Simulator sim(1);
  VecSink sink;
  sim.set_trace(&sink);
  int fired = 0;
  sim.schedule(ds::millis(10), [&] { ++fired; }, "keep");
  auto dead = sim.schedule(ds::millis(20), [&] { ++fired; }, "kill");
  dead.cancel();
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sink.count("sched"), 2u);
  EXPECT_EQ(sink.count("fire"), 1u);
  EXPECT_EQ(sink.count("cancel"), 1u);
  // The sched record carries the tag and the fire time.
  bool saw_keep = false;
  for (const auto& r : sink.recs) {
    if (r.kind == "sched" && r.tag == "keep") {
      saw_keep = true;
      EXPECT_EQ(r.a, static_cast<std::uint64_t>(ds::millis(10)));
    }
  }
  EXPECT_TRUE(saw_keep);
}

TEST(Trace, DetachedPostIsTracedLikeSchedule) {
  ds::Simulator sim(1);
  VecSink sink;
  sim.set_trace(&sink);
  int fired = 0;
  sim.post(ds::millis(5), [&] { ++fired; }, "detached");
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sink.count("sched"), 1u);
  EXPECT_EQ(sink.count("fire"), 1u);
  EXPECT_EQ(sink.recs[0].tag, "detached");
}

TEST(Trace, NoSinkStillRuns) {
  ds::Simulator sim(1);
  int fired = 0;
  sim.post(ds::millis(1), [&] { ++fired; });
  sim.schedule(ds::millis(2), [&] { ++fired; });
  sim.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(Trace, NetworkEmitsSendAndDropRecords) {
  ds::Simulator sim(7);
  VecSink sink;
  sim.set_trace(&sink);
  dn::Network net(sim, std::make_unique<dn::ConstantLatency>(ds::millis(5)));
  Echo alice, bob;
  const auto a = net.new_node_id();
  const auto b = net.new_node_id();
  net.attach(a, &alice);
  net.attach(b, &bob);
  net.send(a, b, std::string("hi"), 64);
  sim.run_all();
  EXPECT_EQ(bob.got, 1);
  ASSERT_EQ(sink.count("send"), 1u);
  for (const auto& r : sink.recs) {
    if (r.kind == "send") {
      EXPECT_EQ(r.bytes, 64u);
    }
  }

  // An unreachable receiver: the send is recorded on entry, then the drop
  // with its reason tag.
  net.set_unreachable(b, true);
  net.send(a, b, std::string("lost"), 32);
  sim.run_all();
  EXPECT_EQ(bob.got, 1);
  EXPECT_EQ(sink.count("send"), 2u);
  ASSERT_EQ(sink.count("drop"), 1u);
  for (const auto& r : sink.recs) {
    if (r.kind == "drop") {
      EXPECT_EQ(r.tag, "unreachable");
      EXPECT_EQ(r.bytes, 32u);
      EXPECT_EQ(r.a, a.value);
      EXPECT_EQ(r.b, b.value);
    }
  }
}

TEST(Trace, JsonlIsDeterministicAcrossRuns) {
  // The same seeded workload, traced twice, must serialize to identical
  // bytes — the property the harness's --trace flag is documented to hold.
  const auto run = [](std::uint64_t seed) {
    std::ostringstream out;
    ds::JsonlTraceSink sink(out);
    ds::Simulator sim(seed);
    sim.set_trace(&sink);
    dn::Network net(sim,
                    std::make_unique<dn::LogNormalLatency>(ds::millis(20),
                                                           0.4));
    Echo hosts[4];
    std::vector<dn::NodeId> ids;
    for (auto& h : hosts) {
      ids.push_back(net.new_node_id());
      net.attach(ids.back(), &h);
    }
    net.set_drop_probability(0.2);
    for (int round = 0; round < 20; ++round) {
      sim.post(ds::millis(7 * round), [&, round] {
        net.send(ids[static_cast<std::size_t>(round) % 4],
                 ids[static_cast<std::size_t>(round + 1) % 4],
                 std::string("m"), 100 + static_cast<std::size_t>(round));
      });
    }
    sim.run_all();
    sink.flush();
    return out.str();
  };
  const std::string first = run(99);
  const std::string second = run(99);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // A different seed perturbs latency draws, so the stream differs.
  EXPECT_NE(first, run(100));
}

TEST(Trace, JsonlRecordsAreOnePerLine) {
  std::ostringstream out;
  ds::JsonlTraceSink sink(out);
  ds::Simulator sim(3);
  sim.set_trace(&sink);
  for (int i = 0; i < 5; ++i) sim.post(ds::millis(i), [] {});
  sim.run_all();
  sink.flush();
  const std::string text = out.str();
  std::size_t lines = 0;
  for (char c : text) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, sink.records_written());
  EXPECT_EQ(lines, 10u);  // 5 sched + 5 fire
  // Every line is a JSON object.
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}
