// Kernel tests: event ordering, periodic timers, cancellation, handle
// generations, trace parity with the original kernel, RNG determinism and
// distribution sanity, histogram percentiles, and the decentralization
// statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace ds = decentnet::sim;

TEST(Simulator, ExecutesEventsInTimestampOrder) {
  ds::Simulator sim;
  std::vector<int> order;
  sim.schedule(ds::millis(30), [&] { order.push_back(3); });
  sim.schedule(ds::millis(10), [&] { order.push_back(1); });
  sim.schedule(ds::millis(20), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), ds::millis(30));
}

TEST(Simulator, SameTimestampIsFifo) {
  ds::Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(ds::millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  ds::Simulator sim;
  int fired = 0;
  sim.schedule(ds::seconds(1), [&] { ++fired; });
  sim.schedule(ds::seconds(2), [&] { ++fired; });
  sim.schedule(ds::seconds(3), [&] { ++fired; });
  sim.run_until(ds::seconds(2));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), ds::seconds(2));
  sim.run_until(ds::seconds(10));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), ds::seconds(10));  // clock advances to the horizon
}

TEST(Simulator, CancelPreventsExecution) {
  ds::Simulator sim;
  int fired = 0;
  auto handle = sim.schedule(ds::seconds(1), [&] { ++fired; });
  EXPECT_TRUE(handle.valid());
  handle.cancel();
  EXPECT_FALSE(handle.valid());
  sim.run_all();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, PeriodicFiresRepeatedlyUntilCancelled) {
  ds::Simulator sim;
  int fired = 0;
  auto handle = sim.schedule_periodic(ds::seconds(1), ds::seconds(1), [&] {
    ++fired;
  });
  sim.run_until(ds::seconds(5) + ds::millis(1));
  EXPECT_EQ(fired, 5);
  handle.cancel();
  sim.run_until(ds::seconds(20));
  EXPECT_EQ(fired, 5);
}

TEST(Simulator, EventsScheduledFromEventsRun) {
  ds::Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule(ds::millis(1), recurse);
  };
  sim.schedule(0, recurse);
  sim.run_all();
  EXPECT_EQ(depth, 5);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  ds::Simulator sim;
  sim.schedule(ds::seconds(1), [] {});
  sim.run_all();
  bool fired = false;
  sim.schedule(-ds::seconds(5), [&] { fired = true; });
  sim.run_all();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), ds::seconds(1));
}

TEST(Simulator, SameTimeFifoAcrossTenThousandEvents) {
  // The slab + indexed-heap kernel must keep the (when, seq) FIFO contract
  // exact at scale, including when same-time events are interleaved with
  // earlier and later ones.
  ds::Simulator sim;
  std::vector<int> order;
  order.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    sim.post(ds::millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  ASSERT_EQ(order.size(), 10000u);
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, CancelInsideCallbackPreventsLaterEvent) {
  ds::Simulator sim;
  int fired = 0;
  auto victim = sim.schedule(ds::millis(20), [&] { ++fired; });
  sim.schedule(ds::millis(10), [&] {
    EXPECT_TRUE(victim.valid());
    victim.cancel();
    EXPECT_FALSE(victim.valid());
  });
  sim.run_all();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelOwnEventInsideItsCallbackIsNoOp) {
  // By the time the callback runs, the event's slot has been recycled: the
  // handle reads invalid and cancel() must not disturb whatever event may
  // have taken the slot.
  ds::Simulator sim;
  ds::EventHandle self;
  bool ran = false, later_ran = false;
  self = sim.schedule(ds::millis(1), [&] {
    ran = true;
    EXPECT_FALSE(self.valid());
    // Reuse the freed slot immediately, then try the stale cancel.
    sim.schedule(ds::millis(1), [&] { later_ran = true; });
    self.cancel();
  });
  sim.run_all();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(later_ran);  // the stale handle must not have cancelled it
}

TEST(Simulator, PeriodicSelfCancelStopsTheSeries) {
  ds::Simulator sim;
  int fired = 0;
  ds::EventHandle series;
  series = sim.schedule_periodic(ds::seconds(1), ds::seconds(1), [&] {
    if (++fired == 3) series.cancel();
  });
  sim.run_until(ds::seconds(30));
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(series.valid());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, ClearInvalidatesOutstandingHandles) {
  // Regression: with the shared_ptr kernel, clear() dropped the queue but
  // left alive-flags set, so stale handles kept reporting valid. Slot
  // generations bump on clear, so every outstanding handle reads invalid.
  ds::Simulator sim;
  int fired = 0;
  auto one_shot = sim.schedule(ds::seconds(1), [&] { ++fired; });
  auto periodic =
      sim.schedule_periodic(ds::seconds(1), ds::seconds(1), [&] { ++fired; });
  EXPECT_TRUE(one_shot.valid());
  EXPECT_TRUE(periodic.valid());
  sim.clear();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(one_shot.valid());
  EXPECT_FALSE(periodic.valid());
  // Stale cancels must not disturb new events that reuse the slots.
  bool survivor_ran = false;
  sim.schedule(ds::seconds(1), [&] { survivor_ran = true; });
  one_shot.cancel();
  periodic.cancel();
  sim.run_until(ds::seconds(5));
  EXPECT_TRUE(survivor_ran);
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, HandleStaysInvalidWhenSlotIsReused) {
  ds::Simulator sim;
  int first = 0, second = 0;
  auto h = sim.schedule(ds::millis(1), [&] { ++first; });
  sim.run_all();
  EXPECT_EQ(first, 1);
  EXPECT_FALSE(h.valid());
  // The new event recycles the fired event's slot; the stale handle must
  // neither validate nor cancel it.
  auto h2 = sim.schedule(ds::millis(1), [&] { ++second; });
  EXPECT_FALSE(h.valid());
  h.cancel();
  EXPECT_TRUE(h2.valid());
  sim.run_all();
  EXPECT_EQ(second, 1);
}

namespace {

// Reference model of the kernel's ordering contract, driven by a random
// schedule: events fire in (when, seq) order, seq counting every push (a
// schedule/post, a series' first arm, and each re-arm, which the kernel
// makes right after the series callback returns); cancelled events never
// fire; and pending_events()/next_event_time() see every queued entry,
// cancelled-but-unreclaimed ones and the no-op firings of a cancelled series
// included. Delays span [-3, 5] ticks, so `when` ties are heavy and negative
// delays clamp to now.
class KernelOrderModel {
 public:
  explicit KernelOrderModel(std::uint64_t seed) : rng_(seed), sim_(seed) {}

  void run() {
    for (int round = 0; round < 30; ++round) {
      const std::uint64_t adds = 20 + rng_.uniform_int(60);
      for (std::uint64_t i = 0; i < adds; ++i) add_random();
      for (int i = 0; i < 5; ++i) cancel_random();  // before any callback
      if (rng_.chance(0.3)) cancel_random_series();
      const ds::SimTime until =
          sim_.now() + static_cast<ds::SimTime>(rng_.uniform_int(8));
      sim_.run_until(until);
      settle(until);
      check_queue();
    }
    draining_ = true;  // no new series, so run_all() ends
    for (Series& s : series_) {
      s.handle.cancel();
      s.alive = false;
    }
    sim_.run_all();
    settle(std::numeric_limits<ds::SimTime>::max());
    check_queue();
    EXPECT_TRUE(queue_.empty());
    for (const Item& it : items_) {
      if (it.series < 0) {
        EXPECT_NE(it.fired, it.cancelled);
      }
    }
    std::vector<Key> reference = fired_;
    std::sort(reference.begin(), reference.end());
    EXPECT_EQ(fired_, reference);
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_TRUE(residues_seen_[r]) << "no fire at heap size " << r
                                     << " mod 4";
    }
  }

 private:
  using Key = std::pair<ds::SimTime, std::uint64_t>;  // (when, seq)
  struct Item {
    Key key;
    int series = -1;  // >= 0: one firing of series_[series]
    bool has_handle = false;
    bool cancelled = false;
    bool fired = false;
    ds::EventHandle handle;
  };
  struct Series {
    ds::EventHandle handle;
    ds::SimDuration period = 1;
    int queued = -1;  // item id of the firing now in the queue
    bool alive = true;
  };

  int new_item(ds::SimTime when, int series) {
    const int id = static_cast<int>(items_.size());
    Item it;
    it.key = {std::max(when, sim_.now()), next_seq_++};
    it.series = series;
    items_.push_back(it);
    queue_.emplace(it.key, id);
    return id;
  }

  void add_random() {
    const ds::SimDuration delay = rng_.uniform_int(-3, 5);
    if (!draining_ && series_.size() < 8 && rng_.chance(0.04)) {
      const int s = static_cast<int>(series_.size());
      series_.push_back({});
      series_[s].period = 1 + static_cast<ds::SimDuration>(rng_.uniform_int(4));
      series_[s].queued = new_item(sim_.now() + std::max<ds::SimDuration>(
                                                    delay, 0),
                                   s);
      series_[s].handle = sim_.schedule_periodic(
          delay, series_[s].period, [this, s] { on_series_fire(s); });
      return;
    }
    const int id = new_item(sim_.now() + delay, -1);
    auto fn = [this, id] { on_fire(id); };
    switch (rng_.uniform_int(4)) {
      case 0:
        items_[id].handle = sim_.schedule(delay, fn);
        items_[id].has_handle = true;
        break;
      case 1:
        items_[id].handle = sim_.schedule_at(sim_.now() + delay, fn);
        items_[id].has_handle = true;
        break;
      case 2:
        sim_.post(delay, fn);
        break;
      default:
        sim_.post_at(sim_.now() + delay, fn);
        break;
    }
  }

  // Cancels one of the most recent items: pending, fired (a no-op) or, from
  // inside a callback, possibly the firing event itself (also a no-op).
  void cancel_random() {
    if (items_.empty()) return;
    const std::size_t recent = std::min<std::size_t>(items_.size(), 64);
    Item& it = items_[items_.size() - 1 - rng_.uniform_int(recent)];
    if (!it.has_handle) return;
    EXPECT_EQ(it.handle.valid(), !it.fired && !it.cancelled);
    it.handle.cancel();
    if (!it.fired) it.cancelled = true;
  }

  void cancel_random_series() {
    if (series_.empty()) return;
    Series& s = series_[rng_.uniform_int(series_.size())];
    EXPECT_EQ(s.handle.valid(), s.alive);
    s.handle.cancel();
    s.alive = false;
  }

  void act() {
    while (rng_.chance(0.45)) add_random();
    if (rng_.chance(0.3)) cancel_random();
    if (rng_.chance(0.02)) cancel_random_series();
    check_queue();
  }

  void on_fire(int id) {
    observe(id);
    act();
  }

  void on_series_fire(int s) {
    ASSERT_TRUE(series_[s].alive);
    observe(series_[s].queued);
    act();
    // The kernel re-arms after this callback returns, before any other push.
    if (series_[s].alive) {
      series_[s].queued = new_item(sim_.now() + series_[s].period, s);
    }
  }

  // The fired item must be the least (when, seq) entry that can fire:
  // everything queued ahead of it is cancelled or a cancelled series' firing.
  void observe(int id) {
    const Key key = items_[id].key;
    EXPECT_EQ(sim_.now(), key.first);
    while (!queue_.empty() && queue_.begin()->first < key) {
      expect_silent(queue_.begin()->second);
      queue_.erase(queue_.begin());
    }
    ASSERT_FALSE(queue_.empty());
    ASSERT_EQ(queue_.begin()->second, id);
    queue_.erase(queue_.begin());
    items_[id].fired = true;
    fired_.push_back(key);
    check_queue();
    residues_seen_[sim_.pending_events() % 4] = true;
  }

  void expect_silent(int id) const {
    const Item& it = items_[id];
    EXPECT_TRUE(it.cancelled || (it.series >= 0 && !series_[it.series].alive))
        << "entry (" << it.key.first << ", " << it.key.second
        << ") passed without firing";
  }

  // After run_until(until): cancelled entries that reached the top were
  // reclaimed even past the horizon; no live entry at or before it is left.
  void settle(ds::SimTime until) {
    while (!queue_.empty()) {
      const auto [key, id] = *queue_.begin();
      if (!items_[id].cancelled) {
        if (key.first > until) break;
        expect_silent(id);
      }
      queue_.erase(queue_.begin());
    }
  }

  void check_queue() const {
    EXPECT_EQ(sim_.pending_events(), queue_.size());
    EXPECT_EQ(sim_.next_event_time(),
              queue_.empty() ? std::numeric_limits<ds::SimTime>::max()
                             : queue_.begin()->first.first);
  }

  ds::Rng rng_;
  ds::Simulator sim_;
  std::uint64_t next_seq_ = 0;
  std::vector<Item> items_;
  std::vector<Series> series_;
  std::map<Key, int> queue_;  // the kernel's heap as a sorted reference
  std::vector<Key> fired_;
  std::array<bool, 4> residues_seen_{};
  bool draining_ = false;
};

}  // namespace

TEST(Simulator, FireOrderMatchesReferenceSortOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(seed);
    KernelOrderModel(seed).run();
  }
}

TEST(InlineFn, InlineAndBoxedCapturesBothInvoke) {
  int hits = 0;
  ds::InlineFn<64> small([&hits] { ++hits; });
  small();
  EXPECT_EQ(hits, 1);
  // Oversized capture: takes the heap-fallback path, must still work and
  // destroy cleanly.
  std::array<char, 200> big{};
  big[0] = 7;
  ds::InlineFn<64> boxed([big, &hits] { hits += big[0]; });
  boxed();
  EXPECT_EQ(hits, 8);
  // Move transfers the callable; the source becomes empty.
  ds::InlineFn<64> moved(std::move(boxed));
  moved();
  EXPECT_EQ(hits, 15);
  EXPECT_FALSE(static_cast<bool>(boxed));  // NOLINT(bugprone-use-after-move)
}

TEST(Simulator, TraceMatchesSeedKernelGolden) {
  // The JSONL below was captured from the pre-slab (shared_ptr +
  // std::priority_queue) kernel running this exact scenario. The rewritten
  // kernel must emit identical sched/fire/cancel records: same seq
  // numbering, same FIFO order, and the same lazy-cancel reclamation points
  // (a cancelled event is traced when it surfaces, even one parked beyond
  // the run_until horizon).
  static const char* kGolden =
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"a\",\"id\":0,\"a\":10000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"b\",\"id\":1,\"a\":5000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"c\",\"id\":2,\"a\":7000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"d\",\"id\":3,\"a\":20000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"e\",\"id\":4,\"a\":8000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"f\",\"id\":5,\"a\":12000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"f\",\"id\":6,\"a\":12000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"f\",\"id\":7,\"a\":12000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"f\",\"id\":8,\"a\":12000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"p\",\"id\":9,\"a\":3000}\n"
      "{\"t\":0,\"kind\":\"sched\",\"tag\":\"g\",\"id\":10,\"a\":60000}\n"
      "{\"t\":3000,\"kind\":\"fire\",\"tag\":\"p\",\"id\":9}\n"
      "{\"t\":3000,\"kind\":\"sched\",\"tag\":\"p\",\"id\":11,\"a\":7000}\n"
      "{\"t\":5000,\"kind\":\"fire\",\"tag\":\"b\",\"id\":1}\n"
      "{\"t\":5000,\"kind\":\"cancel\",\"tag\":\"c\",\"id\":2}\n"
      "{\"t\":7000,\"kind\":\"fire\",\"tag\":\"p\",\"id\":11}\n"
      "{\"t\":7000,\"kind\":\"sched\",\"tag\":\"p\",\"id\":12,\"a\":11000}\n"
      "{\"t\":8000,\"kind\":\"fire\",\"tag\":\"e\",\"id\":4}\n"
      "{\"t\":10000,\"kind\":\"fire\",\"tag\":\"a\",\"id\":0}\n"
      "{\"t\":11000,\"kind\":\"fire\",\"tag\":\"p\",\"id\":12}\n"
      "{\"t\":12000,\"kind\":\"fire\",\"tag\":\"f\",\"id\":5}\n"
      "{\"t\":12000,\"kind\":\"fire\",\"tag\":\"f\",\"id\":6}\n"
      "{\"t\":12000,\"kind\":\"fire\",\"tag\":\"f\",\"id\":7}\n"
      "{\"t\":12000,\"kind\":\"fire\",\"tag\":\"f\",\"id\":8}\n"
      "{\"t\":12000,\"kind\":\"cancel\",\"tag\":\"d\",\"id\":3}\n"
      "{\"t\":12000,\"kind\":\"cancel\",\"tag\":\"g\",\"id\":10}\n";

  std::ostringstream out;
  ds::JsonlTraceSink sink(out);
  ds::Simulator sim;
  sim.set_trace(&sink);

  int fired = 0;
  auto h1 = sim.schedule(ds::millis(10), [&] { ++fired; }, "a");
  (void)h1;
  sim.post(ds::millis(5), [&] { ++fired; }, "b");
  auto h2 = sim.schedule(ds::millis(7), [&] { ++fired; }, "c");
  h2.cancel();
  ds::EventHandle h3 = sim.schedule(ds::millis(20), [&] { ++fired; }, "d");
  sim.schedule(ds::millis(8), [&h3] { h3.cancel(); }, "e");
  for (int i = 0; i < 4; ++i) {
    sim.post(ds::millis(12), [&] { ++fired; }, "f");
  }
  int pcount = 0;
  ds::EventHandle p;
  p = sim.schedule_periodic(ds::millis(3), ds::millis(4),
                            [&] {
                              if (++pcount == 3) p.cancel();
                            },
                            "p");
  auto h4 = sim.schedule(ds::millis(60), [&] { ++fired; }, "g");
  h4.cancel();
  sim.run_until(ds::millis(50));

  EXPECT_EQ(out.str(), kGolden);
}

TEST(Rng, DeterministicAcrossInstances) {
  ds::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForkProducesIndependentStream) {
  ds::Rng a(123);
  ds::Rng b = a.fork(1);
  ds::Rng c = a.fork(1);
  // Different forks of advancing parent state must differ.
  EXPECT_NE(b.next(), c.next());
}

TEST(Rng, UniformIsInRange) {
  ds::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto n = rng.uniform_int(std::uint64_t{10});
    EXPECT_LT(n, 10u);
    const auto s = rng.uniform_int(std::int64_t{-5}, std::int64_t{5});
    EXPECT_GE(s, -5);
    EXPECT_LE(s, 5);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  ds::Rng rng(99);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMeanAndStddev) {
  ds::Rng rng(4);
  double sum = 0, sum_sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(Rng, ParetoRespectsMinimum) {
  ds::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
}

TEST(Rng, WeightedIndexFollowsWeights) {
  ds::Rng rng(6);
  std::vector<double> weights{1, 0, 3};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, ShufflePreservesElements) {
  ds::Rng rng(8);
  std::vector<int> v{1, 2, 3, 4, 5};
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(ZipfSampler, RankZeroIsMostFrequent) {
  ds::Rng rng(11);
  ds::ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
}

TEST(Histogram, ExactPercentilesOnSmallData) {
  ds::Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 100);
  EXPECT_NEAR(h.percentile(50), 50.5, 0.01);
  EXPECT_NEAR(h.percentile(99), 99.01, 0.01);
  EXPECT_NEAR(h.mean(), 50.5, 1e-9);
}

TEST(Histogram, FractionBelow) {
  ds::Histogram h;
  for (int i = 1; i <= 10; ++i) h.record(i);
  EXPECT_DOUBLE_EQ(h.fraction_below(5.0), 0.5);
  EXPECT_DOUBLE_EQ(h.fraction_below(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.fraction_below(100.0), 1.0);
}

TEST(Histogram, ReservoirKeepsCountExact) {
  ds::Histogram h(/*max_samples=*/100);
  for (int i = 0; i < 10000; ++i) h.record(i);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_EQ(h.samples().size(), 100u);
  // The reservoir median should approximate the true median.
  EXPECT_NEAR(h.percentile(50), 5000, 1500);
}

TEST(Histogram, ReservoirPercentilesTrackDistributionPastCapacity) {
  // Regression: once record() crosses max_samples and switches to
  // reservoir downsampling, every percentile (not just the median) must
  // keep tracking the underlying distribution, and the result must be a
  // pure function of the seed.
  ds::Histogram h(/*max_samples=*/500, /*reservoir_seed=*/0x5EED);
  const std::uint64_t n = 50'000;
  for (std::uint64_t i = 0; i < n; ++i) {
    h.record(static_cast<double>(i));  // uniform on [0, n)
  }
  EXPECT_EQ(h.count(), n);
  EXPECT_EQ(h.samples().size(), 500u);
  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    const double truth = static_cast<double>(n) * p / 100.0;
    // Binomial spread of a 500-sample reservoir: ~5 percentage points of
    // mass, generously doubled for the tails.
    EXPECT_NEAR(h.percentile(p), truth, static_cast<double>(n) * 0.10)
        << "p" << p;
  }
  EXPECT_NEAR(h.mean(), static_cast<double>(n) / 2.0,
              static_cast<double>(n) * 0.01);  // mean is exact, not sampled

  // Same seed, same stream -> identical reservoir.
  ds::Histogram again(500, 0x5EED);
  for (std::uint64_t i = 0; i < n; ++i) {
    again.record(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(h.percentile(90), again.percentile(90));
  EXPECT_EQ(h.samples(), again.samples());
}

TEST(Stats, GiniOfEqualSharesIsZero) {
  EXPECT_NEAR(decentnet::sim::gini({5, 5, 5, 5}), 0.0, 1e-9);
}

TEST(Stats, GiniOfMonopolyApproachesOne) {
  std::vector<double> v(100, 0.0);
  v[0] = 1000;
  EXPECT_NEAR(decentnet::sim::gini(v), 0.99, 0.011);
}

TEST(Stats, NakamotoCoefficient) {
  // Six pools with 75%: {20,15,12,11,9,8} + tail of small miners.
  std::vector<double> shares{20, 15, 12, 11, 9, 8};
  for (int i = 0; i < 25; ++i) shares.push_back(1.0);
  EXPECT_EQ(decentnet::sim::nakamoto_coefficient(shares), 4u);
  EXPECT_NEAR(decentnet::sim::top_k_share(shares, 6), 0.75, 0.001);
}

TEST(Stats, EntropyBounds) {
  EXPECT_NEAR(decentnet::sim::shannon_entropy({1, 1, 1, 1}), 2.0, 1e-9);
  EXPECT_NEAR(decentnet::sim::shannon_entropy({1, 0, 0, 0}), 0.0, 1e-9);
}

TEST(Stats, HhiBounds) {
  EXPECT_NEAR(decentnet::sim::hhi({1, 1, 1, 1}), 0.25, 1e-9);
  EXPECT_NEAR(decentnet::sim::hhi({42}), 1.0, 1e-9);
}

TEST(Table, RendersAlignedColumns) {
  ds::Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", ds::Table::num(1.5)});
  t.add_row({"beta", ds::Table::num(20.25)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("20.25"), std::string::npos);
}

TEST(Time, FormatDuration) {
  EXPECT_EQ(ds::format_duration(ds::seconds(1.5)), "1.50s");
  EXPECT_EQ(ds::format_duration(ds::millis(340)), "340.00ms");
  EXPECT_EQ(ds::format_duration(ds::minutes(2)), "2.00min");
}
