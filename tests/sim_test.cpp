#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace anton::sim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(ns(1.0), 1000);
  EXPECT_EQ(ns(0.5), 500);
  EXPECT_EQ(us(1.0), 1000000);
  EXPECT_DOUBLE_EQ(toNs(1500), 1.5);
  EXPECT_DOUBLE_EQ(toUs(2500000), 2.5);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(ns(30), [&] { order.push_back(3); });
  sim.at(ns(10), [&] { order.push_back(1); });
  sim.at(ns(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), ns(30));
}

TEST(Simulator, SameTimeEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.at(ns(5), [&, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[size_t(i)], i);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.at(ns(10), [] {});
  sim.run();
  EXPECT_THROW(sim.at(ns(5), [] {}), std::logic_error);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.at(ns(1), [&] {
    sim.after(ns(1), [&] {
      sim.after(ns(1), [&] { ++fired; });
      ++fired;
    });
    ++fired;
  });
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), ns(3));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.at(ns(10), [&] { ++fired; });
  sim.at(ns(20), [&] { ++fired; });
  sim.at(ns(30), [&] { ++fired; });
  sim.runUntil(ns(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), ns(20));
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.runUntil(ns(100));
  EXPECT_EQ(sim.now(), ns(100));
}

Task delayTwice(Simulator& sim, std::vector<double>& marks) {
  co_await sim.delay(ns(10));
  marks.push_back(toNs(sim.now()));
  co_await sim.delay(ns(5));
  marks.push_back(toNs(sim.now()));
}

TEST(Task, DelaysAdvanceSimTime) {
  Simulator sim;
  std::vector<double> marks;
  sim.spawn(delayTwice(sim, marks));
  sim.run();
  EXPECT_EQ(marks, (std::vector<double>{10.0, 15.0}));
}

Task child(Simulator& sim, int& state) {
  co_await sim.delay(ns(7));
  state = 42;
}

Task parent(Simulator& sim, int& state, double& doneAt) {
  co_await child(sim, state);
  doneAt = toNs(sim.now());
}

TEST(Task, AwaitingSubtaskRunsItToCompletion) {
  Simulator sim;
  int state = 0;
  double doneAt = -1;
  sim.spawn(parent(sim, state, doneAt));
  sim.run();
  EXPECT_EQ(state, 42);
  EXPECT_DOUBLE_EQ(doneAt, 7.0);
}

Task thrower(Simulator& sim) {
  co_await sim.delay(ns(1));
  throw std::runtime_error("boom");
}

TEST(Task, DetachedExceptionPropagatesFromRun) {
  Simulator sim;
  sim.spawn(thrower(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

Task catching(Simulator& sim, bool& caught) {
  try {
    co_await thrower(sim);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Task, AwaitedExceptionPropagatesToAwaiter) {
  Simulator sim;
  bool caught = false;
  sim.spawn(catching(sim, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Task, ManyConcurrentTasks) {
  Simulator sim;
  int done = 0;
  auto worker = [](Simulator& s, int delayNs, int& d) -> Task {
    co_await s.delay(ns(delayNs));
    ++d;
  };
  for (int i = 0; i < 1000; ++i) sim.spawn(worker(sim, i % 17 + 1, done));
  sim.run();
  EXPECT_EQ(done, 1000);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    double u = r.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 5000; ++i) {
    auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    sawLo |= v == -3;
    sawHi |= v == 3;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  double sum = 0, sumsq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double x = r.normal();
    sum += x;
    sumsq += x * x;
  }
  double mean = sum / n;
  double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Simulator, DeadlineFiresWhenNotCancelled) {
  Simulator sim;
  int fired = 0;
  sim.armDeadline(ns(10), [&] { ++fired; });
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), ns(10));
  EXPECT_EQ(sim.eventsProcessed(), 1u);
  EXPECT_EQ(sim.nextSeq(), 1u) << "a fired deadline takes one seq";
  EXPECT_THROW(sim.armDeadline(ns(5), [] {}), std::logic_error);
}

TEST(Simulator, CancelledDeadlineLeavesNoTrace) {
  // A retracted deadline must leave the run bit-identical to never arming
  // it: no callback, and the clock, processed tally, seq counter and
  // schedule digest all as in a run without it.
  auto runWith = [](bool arm) {
    Simulator sim;
    int fired = 0;
    sim.at(ns(10), [] {});
    Simulator::DeadlineId d = 0;
    if (arm) d = sim.armDeadline(ns(20), [&] { ++fired; });
    // Cancel from within an earlier event (the common race pattern).
    sim.at(ns(15), [&sim, d, arm] { EXPECT_EQ(sim.cancelDeadline(d), arm); });
    sim.at(ns(30), [] {});
    sim.run();
    EXPECT_EQ(fired, 0);
    EXPECT_FALSE(sim.cancelDeadline(d)) << "a second cancel is a no-op";
    return std::tuple{sim.now(), sim.eventsProcessed(), sim.nextSeq(),
                      sim.scheduleDigest()};
  };
  EXPECT_EQ(runWith(true), runWith(false));

  Simulator sim;
  int fired = 0;
  Simulator::DeadlineId d = sim.armDeadline(ns(5), [&] { ++fired; });
  sim.run();
  EXPECT_FALSE(sim.cancelDeadline(d)) << "cancel after firing is harmless";
  EXPECT_FALSE(sim.cancelDeadline(0));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, EventAtTheDeadlinesInstantRunsFirst) {
  // The tie rule: a deadline at t fires only once no queued event is at or
  // before t, even an event scheduled after the deadline was armed, or one
  // that an event at t schedules for t.
  Simulator sim;
  std::vector<int> order;
  sim.armDeadline(ns(20), [&] { order.push_back(9); });
  sim.at(ns(20), [&] {
    order.push_back(1);
    sim.at(ns(20), [&] { order.push_back(2); });
  });
  sim.at(ns(21), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 9, 3}));
}

TEST(Simulator, DeadlinesAtOneInstantFireInArmingOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.armDeadline(ns(20), [&] { order.push_back(1); });
  sim.armDeadline(ns(10), [&] { order.push_back(0); });
  Simulator::DeadlineId d = sim.armDeadline(ns(20), [&] { order.push_back(2); });
  sim.armDeadline(ns(20), [&] { order.push_back(3); });
  sim.armDeadline(ns(20), [&] { order.push_back(4); });
  EXPECT_TRUE(sim.cancelDeadline(d));
  EXPECT_EQ(sim.runUntil(ns(20)), 4u) << "deadlines at the limit run";
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4}));
  EXPECT_EQ(sim.nextSeq(), 4u);
}

TEST(Simulator, ResetDiscardsAPendingDeadline) {
  // A pending deadline is live work: reset() discards it unexecuted and
  // counts it, and the reset kernel is clean.
  Simulator sim;
  int fired = 0;
  sim.at(ns(40), [] {});
  Simulator::DeadlineId d = sim.armDeadline(ns(50), [&] { ++fired; });
  sim.runUntil(ns(30));
  EXPECT_EQ(sim.reset(), 2u);
  EXPECT_TRUE(sim.empty());
  EXPECT_FALSE(sim.cancelDeadline(d)) << "reset already discarded it";
  sim.run();
  EXPECT_EQ(fired, 0);

  // Retracted before the reset, it is gone and not counted.
  sim.at(ns(40), [] {});
  EXPECT_TRUE(sim.cancelDeadline(sim.armDeadline(ns(50), [] {})));
  sim.run();
  EXPECT_EQ(sim.reset(), 0u);
}

TEST(Simulator, ResetReturnsTheKernelToAFreshState) {
  // The arena-reuse audit point: a worker running many jobs on one
  // Simulator must observe a reset kernel as indistinguishable from a
  // fresh one — clock at zero, no pending events, no live frames.
  Simulator sim;
  int fired = 0;
  auto looper = [](Simulator& s, int& n) -> Task {
    for (;;) {
      co_await s.delay(ns(10));
      ++n;
    }
  };
  sim.spawn(looper(sim, fired));
  sim.at(ns(1000), [&] { ++fired; });
  sim.runUntil(ns(35));
  EXPECT_EQ(fired, 3);
  EXPECT_GT(sim.now(), 0);
  EXPECT_FALSE(sim.empty());

  std::size_t discarded = sim.reset();
  EXPECT_GE(discarded, 2u) << "pending event + live root";
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.liveRoots(), 0u);
  EXPECT_EQ(sim.eventsProcessed(), 0u);

  // Discarded work must never fire after the reset.
  sim.run();
  EXPECT_EQ(fired, 3);

  // The reset kernel replays a schedule bit-identically to a fresh one:
  // same event count, same final clock, and a second reset reports clean.
  auto replay = [](Simulator& s) {
    int n = 0;
    auto t = [](Simulator& sm, int& k) -> Task {
      for (int i = 0; i < 5; ++i) {
        co_await sm.delay(ns(7));
        ++k;
      }
    };
    s.spawn(t(s, n));
    std::uint64_t events = s.run();
    return std::tuple{n, events, s.now()};
  };
  auto fromReset = replay(sim);
  EXPECT_EQ(sim.reset(), 0u) << "drained run left the arena dirty";
  Simulator fresh;
  EXPECT_EQ(fromReset, replay(fresh));
}

TEST(Simulator, ReservedSeqSlotsKeepTheirPlaceInTheSchedule) {
  // The batched-drain contract: an event scheduled later via atReserved()
  // with an earlier-reserved sequence number fires exactly where a plain
  // at() issued at reservation time would have — before same-time events
  // whose seq was handed out after it.
  Simulator sim;
  std::vector<int> order;
  std::uint64_t slot = sim.reserveSeq();          // reserved first...
  sim.at(ns(10), [&] { order.push_back(2); });    // ...then a same-time event
  sim.atReserved(ns(10), slot, [&] { order.push_back(1); });
  sim.at(ns(10), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));

  EXPECT_THROW(sim.atReserved(ns(5), sim.reserveSeq(), [] {}),
               std::logic_error)
      << "scheduling in the past must throw like at()";
  EXPECT_THROW(sim.atReserved(ns(20), sim.nextSeq() + 7, [] {}),
               std::logic_error)
      << "an unreserved (future) seq is a scheduling bug";
}

TEST(Simulator, RootsAreReapedIncrementally) {
  // Completed root frames must not pile up until the queue drains: with
  // thousands of short tasks alive at once, liveRoots() shrinks mid-run.
  Simulator sim;
  auto tiny = [](Simulator& s) -> Task { co_await s.delay(ns(1)); };
  const int kTasks = 3000;
  for (int i = 0; i < kTasks; ++i) sim.spawn(tiny(sim));
  std::size_t liveAtEnd = kTasks;
  sim.at(ns(100), [&] { liveAtEnd = sim.liveRoots(); });
  sim.run();
  // All tasks completed at 1 ns; by the sampling event (after > 2 reap
  // intervals of events) most frames must already be gone.
  EXPECT_LT(liveAtEnd, std::size_t(kTasks));
  EXPECT_EQ(sim.liveRoots(), 0u);
}

// --- differential queue check ---------------------------------------------
// The kernel's queue is a bucketed calendar; its contract is the plain
// (t, seq) min-heap below. One seeded program drives both and must observe
// the same thing at every step: which event fires, the clock when it fires,
// the clock after each runUntil(), the count each run returns and every
// reset() verdict. The program mixes plain and reserved-seq events with
// deadlines; same-time bursts of thousands; delays from zero through one
// bucket, across the ring, and far beyond its horizon; runUntil() limits
// that fall between buckets; and resets with work still pending. Callbacks
// schedule further events and arm and cancel deadlines, so the queue is
// also fed while it pops. The reference holds deadlines in a (t, arming
// order) map and fires one only when no queued event is at or before it,
// drawing its seq then; every fire logs the next seq, so a deadline that
// took a seq without firing (or fired without taking one) shows.
class ReferenceKernel {
 public:
  using DeadlineId = std::uint64_t;

  Time now() const { return now_; }
  std::uint64_t nextSeq() const { return nextSeq_; }
  std::uint64_t reserveSeq() { return nextSeq_++; }
  void at(Time t, std::function<void()> fn) {
    push(t, nextSeq_++, std::move(fn));
  }
  void atReserved(Time t, std::uint64_t seq, std::function<void()> fn) {
    push(t, seq, std::move(fn));
  }
  DeadlineId armDeadline(Time t, std::function<void()> fn) {
    if (t < now_) throw std::logic_error("reference: deadline in the past");
    deadlines_.emplace(std::pair{t, ++lastDeadline_}, std::move(fn));
    return lastDeadline_;
  }
  bool cancelDeadline(DeadlineId id) {
    return std::erase_if(deadlines_, [id](const auto& d) {
             return d.first.second == id;
           }) != 0;
  }
  std::uint64_t runUntil(Time until) {
    std::uint64_t n = drain(until);
    if (now_ < until) now_ = until;
    return n;
  }
  std::uint64_t run() { return drain(std::numeric_limits<Time>::max()); }
  std::size_t reset() {
    std::size_t live = q_.size() + deadlines_.size();
    q_ = {};
    fns_.clear();
    deadlines_.clear();
    now_ = 0;
    nextSeq_ = 0;
    return live;
  }

 private:
  struct Entry {
    Time t;
    std::uint64_t seq;
    std::size_t idx;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  std::uint64_t drain(Time until) {
    std::uint64_t n = 0;
    for (;;) {
      const bool deadline =
          !deadlines_.empty() &&
          (q_.empty() || q_.top().t > deadlines_.begin()->first.first);
      std::function<void()> fn;
      if (deadline) {
        if (deadlines_.begin()->first.first > until) break;
        now_ = deadlines_.begin()->first.first;
        fn = std::move(deadlines_.begin()->second);
        deadlines_.erase(deadlines_.begin());
        ++nextSeq_;
      } else {
        if (q_.empty() || q_.top().t > until) break;
        now_ = q_.top().t;
        fn = std::move(fns_[q_.top().idx]);
        q_.pop();
      }
      ++n;
      fn();
    }
    return n;
  }
  void push(Time t, std::uint64_t seq, std::function<void()> fn) {
    if (t < now_) throw std::logic_error("reference: scheduled in the past");
    fns_.push_back(std::move(fn));
    q_.push({t, seq, fns_.size() - 1});
  }

  Time now_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> q_;
  std::vector<std::function<void()>> fns_;
  std::map<std::pair<Time, DeadlineId>, std::function<void()>> deadlines_;
  DeadlineId lastDeadline_ = 0;
};

/// The seeded program. Every decision comes from its own Rng, so two
/// correct kernels consume identical draw sequences and emit identical
/// observation logs.
template <typename Kernel>
class QueueProgram {
 public:
  QueueProgram(Kernel& k, std::uint64_t seed) : k_(k), rng_(seed) {}

  std::vector<std::int64_t> run(int ops) {
    for (int op = 0; op < ops; ++op) {
      std::uint64_t pick = rng_.below(1000);
      if (pick < 420) {
        schedule(0);
      } else if (pick < 421) {
        burst();
      } else if (pick < 540) {
        reserved_.push_back(k_.reserveSeq());
      } else if (pick < 660) {
        scheduleReserved(0);
      } else if (pick < 760) {
        cancelOne();
      } else if (pick < 998) {
        Time d = rng_.below(2) == 0
                     ? delay()
                     // just before, on, or just after a bucket edge
                     : Time(rng_.below(64) + 1) * 1024 + rng_.range(-1, 1);
        Time until = k_.now() + std::max<Time>(d, 0);
        note(kRunUntil, std::int64_t(k_.runUntil(until)));
        note(kClock, k_.now());
      } else {
        note(kReset, std::int64_t(k_.reset()));
        reserved_.clear();
        handles_.clear();
      }
    }
    note(kRunUntil, std::int64_t(k_.run()));
    note(kClock, k_.now());
    note(kReset, std::int64_t(k_.reset()));
    return log_;
  }

 private:
  enum Tag : std::int64_t {
    kFire = -1,
    kRunUntil = -2,
    kClock = -3,
    kReset = -4,
    kSeq = -5,
    kCancel = -6,
  };
  void note(Tag tag, std::int64_t v) {
    log_.push_back(tag);
    log_.push_back(v);
  }

  Time delay() {
    switch (rng_.below(8)) {
      case 0: return 0;                              // same instant
      case 1: return Time(rng_.below(1024));         // within one bucket
      case 2:
      case 3: return Time(rng_.below(64'000));       // a few buckets on
      case 4:
      case 5: return Time(rng_.below(4'000'000));    // across the ring
      case 6: return Time(rng_.below(40'000'000));   // past its horizon
      default:                                       // milliseconds away
        return Time(1'000'000'000) + Time(rng_.below(1'000'000'000));
    }
  }

  std::function<void()> fire(int depth) {
    const std::int64_t id = nextId_++;
    return [this, id, depth] {
      note(kFire, id);
      note(kClock, k_.now());
      note(kSeq, std::int64_t(k_.nextSeq()));
      if (depth >= 3) return;
      switch (rng_.below(6)) {
        case 0: schedule(depth + 1); break;
        case 1: schedule(depth + 1); schedule(depth + 1); break;
        case 2: scheduleReserved(depth + 1); break;
        case 3: cancelOne(); break;
        default: break;
      }
    };
  }

  void schedule(int depth) {
    const Time t = k_.now() + delay();
    if (rng_.below(4) == 0)
      handles_.push_back(k_.armDeadline(t, fire(depth)));
    else
      k_.at(t, fire(depth));
  }

  void scheduleReserved(int depth) {
    if (reserved_.empty()) {
      // Reserve now, schedule after a few other events have taken seqs.
      reserved_.push_back(k_.reserveSeq());
      return;
    }
    std::size_t i = std::size_t(rng_.below(reserved_.size()));
    std::uint64_t seq = reserved_[i];
    reserved_[i] = reserved_.back();
    reserved_.pop_back();
    k_.atReserved(k_.now() + delay(), seq, fire(depth));
  }

  void burst() {
    // Thousands of events at one instant: the queued ones in seq order,
    // then the deadlines in arming order.
    const Time t = k_.now() + delay();
    const int n = 1000 + int(rng_.below(3000));
    for (int i = 0; i < n; ++i) {
      if (i % 7 == 0)
        handles_.push_back(k_.armDeadline(t, fire(3)));
      else
        k_.at(t, fire(3));
    }
  }

  void cancelOne() {
    if (handles_.empty()) return;
    std::size_t i = std::size_t(rng_.below(handles_.size()));
    note(kCancel, k_.cancelDeadline(handles_[i]));
    handles_[i] = handles_.back();
    handles_.pop_back();
  }

  Kernel& k_;
  Rng rng_;
  std::int64_t nextId_ = 0;
  std::vector<std::uint64_t> reserved_;
  std::vector<typename Kernel::DeadlineId> handles_;
  std::vector<std::int64_t> log_;
};

TEST(Simulator, BucketedQueueMatchesAReferenceHeapOperationForOperation) {
  constexpr int kOps = 35000;  // per seed: ~100k operations in all
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Simulator sim;
    ReferenceKernel ref;
    std::vector<std::int64_t> got =
        QueueProgram<Simulator>(sim, seed).run(kOps);
    std::vector<std::int64_t> want =
        QueueProgram<ReferenceKernel>(ref, seed).run(kOps);
    std::size_t fires = 0;
    for (std::size_t i = 0; i < want.size(); i += 2)
      fires += want[i] == -1;  // a kFire observation
    EXPECT_GT(fires, 100000u) << "seed " << seed << ": the program ran shallow";
    std::size_t i = 0;
    while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
    ASSERT_EQ(i, want.size())
        << "seed " << seed << ": observation " << i / 2 << " of "
        << want.size() / 2 << " differs";
    EXPECT_EQ(got.size(), want.size());
  }
}

// Two same-time events, each scheduling a follow-up at its own delay.
// Swapping the order they are scheduled in keeps every execution time and
// swaps the follow-ups' seqs. Returns the execution times.
std::vector<Time> twoChains(Simulator& sim, bool swapped) {
  std::vector<Time> times;
  auto chain = [&](Time delay) {
    sim.at(ns(1), [&sim, &times, delay] {
      times.push_back(sim.now());
      sim.after(delay, [&sim, &times] { times.push_back(sim.now()); });
    });
  };
  chain(swapped ? ns(2) : ns(1));
  chain(swapped ? ns(1) : ns(2));
  sim.run();
  return times;
}

TEST(Simulator, ScheduleDigestFingerprintsTheExecutedOrder) {
  Simulator a, b;
  const std::vector<Time> times = twoChains(a, false);
  twoChains(b, false);
  EXPECT_EQ(a.scheduleDigest(), b.scheduleDigest());

  // reset() restarts the digest with the clock and the seqs: a reused
  // kernel fingerprints its next run exactly as a fresh one does.
  Simulator reused;
  twoChains(reused, true);
  reused.at(ns(5), [] {});  // discarded unexecuted by reset()
  EXPECT_EQ(reused.reset(), 1u);
  twoChains(reused, false);
  EXPECT_EQ(reused.scheduleDigest(), a.scheduleDigest());

  // Same execution times, swapped seqs: only the seq tells them apart.
  Simulator swapped;
  EXPECT_EQ(twoChains(swapped, true), times);
  EXPECT_NE(swapped.scheduleDigest(), a.scheduleDigest());
}

}  // namespace
}  // namespace anton::sim
