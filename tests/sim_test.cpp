#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/causal_log.hpp"
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

TEST(Simulator, CancellableEventFiresWhenNotCancelled) {
  Simulator sim;
  int fired = 0;
  Simulator::EventHandle h = sim.atCancellable(ns(10), [&] { ++fired; });
  (void)h;
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), ns(10));
}

TEST(Simulator, CancelledEventDoesNotRunOrAdvanceTime) {
  // A retracted deadline must leave the timeline bit-identical to never
  // scheduling it: no callback, no now() advance, no processed count.
  Simulator sim;
  int fired = 0;
  Simulator::EventHandle h = sim.atCancellable(ns(100), [&] { ++fired; });
  Simulator::cancel(h);
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.eventsProcessed(), 0u);
}

TEST(Simulator, CancelledEventAmongOthersIsInvisible) {
  Simulator sim;
  std::vector<int> order;
  sim.at(ns(10), [&] { order.push_back(1); });
  Simulator::EventHandle h = sim.atCancellable(ns(20), [&] { order.push_back(99); });
  sim.at(ns(30), [&] { order.push_back(3); });
  // Cancel from within an earlier event (the common race pattern).
  sim.at(ns(15), [&, h] { Simulator::cancel(h); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.now(), ns(30));
}

TEST(Simulator, CancelAfterFiringIsHarmless) {
  Simulator sim;
  int fired = 0;
  Simulator::EventHandle h = sim.atCancellable(ns(5), [&] { ++fired; });
  sim.run();
  Simulator::cancel(h);
  Simulator::cancel(nullptr);  // null handle is a no-op too
  EXPECT_EQ(fired, 1);
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

TEST(Simulator, ResetIgnoresACancelledEventBuriedUnderALiveOne) {
  // Regression: purgeCancelled() only drains cancelled events at the top of
  // the heap, so a cancelled deadline sitting *under* a live event used to
  // be counted as discarded work by reset() — tripping the serve layer's
  // clean-arena audit on workers that had merely won a counter/deadline
  // race. reset() must count live events only.
  Simulator sim;
  sim.at(ns(40), [] {});  // live, stays on top of the heap
  Simulator::EventHandle h = sim.atCancellable(ns(50), [] {});
  sim.runUntil(ns(30));   // nothing fires; both events still queued
  Simulator::cancel(h);   // buried under the live ns(40) event
  EXPECT_EQ(sim.reset(), 1u) << "cancelled tombstone counted as live work";

  // Same race, fully drained: after the live event fires and the cancelled
  // tombstone is purged, the reset must report a clean kernel.
  sim.at(ns(40), [] {});
  Simulator::EventHandle h2 = sim.atCancellable(ns(50), [] {});
  Simulator::cancel(h2);
  sim.run();
  EXPECT_EQ(sim.reset(), 0u);
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

TEST(CausalLog, ResetOpensANewEpochSoGenerationsDoNotAlias) {
  // reset() restarts sequence numbers, so an attached log must tag each
  // generation with its own epoch: the timing oracle's records would
  // otherwise alias across the resets a serve worker performs between jobs.
  CausalLog log;
  ScopedCausalOracle oracle(log);
  Simulator sim;
  auto chain = [&] {
    sim.at(ns(1), [&] { sim.after(ns(1), [] {}); });
    sim.run();
  };
  chain();
  sim.at(ns(5), [] {});  // pending note dropped with its event by reset()
  EXPECT_EQ(sim.reset(), 1u);
  chain();

  const std::vector<CausalRecord>& r = log.records();
  ASSERT_EQ(r.size(), 4u);
  // Seqs and parents repeat verbatim across the two generations...
  EXPECT_EQ(r[2].seq, r[0].seq);
  EXPECT_EQ(r[3].seq, r[1].seq);
  EXPECT_EQ(r[3].parent, r[2].seq);
  EXPECT_EQ(r[2].parent, kNoCausalParent);
  // ...and only the epoch tells them apart.
  EXPECT_EQ(r[0].epoch, 0);
  EXPECT_EQ(r[1].epoch, 0);
  EXPECT_EQ(r[2].epoch, 1);
  EXPECT_EQ(r[3].epoch, 1);
  EXPECT_NE(r[0], r[2]);
}

}  // namespace
}  // namespace anton::sim
