// End-to-end erasure recovery: link-failure drops must be observable and
// recoverable. Covers the deadline race's loser cancellation (no stale
// counter waiters, no deadline stretching the timeline), the per-source
// diagnosis over the full arrival history, the DropRegistry replay buffer,
// and the recoverCounted retry loop — including exact multicast recovery
// (only denied receivers are re-sent to) and the bounded-budget hard
// failure.
#include <gtest/gtest.h>

#include <vector>

#include "core/allreduce.hpp"
#include "core/recovery.hpp"
#include "fft/distributed.hpp"
#include "fft/grid3d.hpp"
#include "md/anton_app.hpp"
#include "net/machine.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace anton {
namespace {

using net::ClientAddr;
using net::kSlice0;
using net::Machine;
using net::NetworkClient;
using sim::Task;

struct Fixture {
  sim::Simulator sim;
  Machine machine;
  explicit Fixture(util::TorusShape shape = {4, 4, 4}) : machine(sim, shape) {}
  int nodeAt(int x, int y, int z) {
    return util::torusIndex({x, y, z}, machine.shape());
  }
};

/// Deterministic fault model: declares the link failed (packet dropped) on
/// exactly the traversal indices in `dropAt`; all other traversals are clean.
struct DropTraversals final : net::FaultModel {
  std::vector<int> dropAt;
  int seen = 0;
  explicit DropTraversals(std::vector<int> idx) : dropAt(std::move(idx)) {}
  net::LinkFaultOutcome onLinkTraversal(int, int, int, std::size_t,
                                        sim::Time) override {
    net::LinkFaultOutcome out;
    for (int i : dropAt)
      if (i == seen) out.linkFailed = true;
    ++seen;
    return out;
  }
  bool linkDown(int, int, int, sim::Time) const override { return false; }
  sim::Time routerStallUntil(int, sim::Time t) const override { return t; }
};

/// Drops every traversal: nothing ever gets through.
struct DropEverything final : net::FaultModel {
  net::LinkFaultOutcome onLinkTraversal(int, int, int, std::size_t,
                                        sim::Time) override {
    return {.linkFailed = true};
  }
  bool linkDown(int, int, int, sim::Time) const override { return false; }
  sim::Time routerStallUntil(int, sim::Time t) const override { return t; }
};

/// Drops the traversal indices in `dropAt`, counting only traversals on
/// dimension `dim`. Collectives use disjoint dimensions per phase (the FFT's
/// dim-d pass and the all-reduce's dim-d line broadcasts ride only dim-d
/// links), so this targets one phase of a live collective precisely.
struct DropOnDim final : net::FaultModel {
  int dim;
  std::vector<int> dropAt;
  int seen = 0;
  DropOnDim(int d, std::vector<int> idx) : dim(d), dropAt(std::move(idx)) {}
  net::LinkFaultOutcome onLinkTraversal(int, int d, int, std::size_t,
                                        sim::Time) override {
    net::LinkFaultOutcome out;
    if (d == dim) {
      for (int i : dropAt)
        if (i == seen) out.linkFailed = true;
      ++seen;
    }
    return out;
  }
  bool linkDown(int, int, int, sim::Time) const override { return false; }
  sim::Time routerStallUntil(int, sim::Time t) const override { return t; }
};

/// Drops the `index`-th traversal (0-based) whose wire size matches
/// `wireBytes`, and counts them all — e.g. the migration-flush and
/// population-count packets are the only header-only (32-byte-wire)
/// traffic in an MD superstep.
struct DropNthOfWireSize final : net::FaultModel {
  std::size_t wireBytes;
  std::uint64_t index;
  std::uint64_t seen = 0;
  DropNthOfWireSize(std::size_t wb, std::uint64_t n)
      : wireBytes(wb), index(n) {}
  net::LinkFaultOutcome onLinkTraversal(int, int, int, std::size_t wb,
                                        sim::Time) override {
    net::LinkFaultOutcome out;
    if (wb == wireBytes) out.linkFailed = seen++ == index;
    return out;
  }
  bool linkDown(int, int, int, sim::Time) const override { return false; }
  sim::Time routerStallUntil(int, sim::Time t) const override { return t; }
};

/// One permanently dead outgoing link: every traversal attempt on it is
/// dropped; everything else is clean.
struct DeadLink final : net::FaultModel {
  int node, dim, sign;
  DeadLink(int n, int d, int s) : node(n), dim(d), sign(s) {}
  net::LinkFaultOutcome onLinkTraversal(int n, int d, int s, std::size_t,
                                        sim::Time) override {
    net::LinkFaultOutcome out;
    out.linkFailed = n == node && d == dim && s == sign;
    return out;
  }
  bool linkDown(int, int, int, sim::Time) const override { return false; }
  sim::Time routerStallUntil(int, sim::Time t) const override { return t; }
};

core::RecoveryHooks testHooks(core::DropRegistry& reg,
                              core::RecoveryStats& stats) {
  core::RecoveryHooks hooks;
  hooks.registry = &reg;
  hooks.config.timeout = sim::us(100);
  hooks.config.maxResends = 6;
  hooks.config.resendBackoff = sim::us(5);
  hooks.stats = &stats;
  return hooks;
}

// --- watchdog race cancellation -------------------------------------------

TEST(Watchdog, TimeoutCancelsTheCounterWaiter) {
  // A timed-out wait must not leave its wake callback parked on the counter
  // forever (counters never reset, so an unmet target would pin it — and
  // the frames it captures — for the life of the client).
  Fixture f;
  NetworkClient& dst = f.machine.client({0, kSlice0});
  core::WatchdogReport report;
  auto waiter = [&]() -> Task {
    report = co_await core::watchCounter(dst, 0, 5, sim::us(1));  // no sends
  };
  f.sim.spawn(waiter());
  f.sim.run();
  EXPECT_TRUE(report.timedOut);
  EXPECT_EQ(dst.counterWaiters(0), 0u) << "stale counter waiter leaked";
}

TEST(Watchdog, CounterWinCancelsTheDeadline) {
  // When the counter is met first, the pending deadline must be retracted:
  // run() drains the queue, so a surviving deadline event would stretch
  // simulated time to the full timeout.
  Fixture f;
  NetworkClient& dst = f.machine.client({0, kSlice0});
  core::WatchdogReport report;
  auto waiter = [&]() -> Task {
    report = co_await core::watchCounter(dst, 0, 1, sim::us(1000));
  };
  f.sim.spawn(waiter());
  NetworkClient::SendArgs args;
  args.dst = dst.addr();
  args.counterId = 0;
  f.machine.client({f.nodeAt(1, 0, 0), kSlice0}).post(args);
  f.sim.run();
  EXPECT_FALSE(report.timedOut);
  EXPECT_EQ(dst.counterWaiters(0), 0u);
  EXPECT_LT(f.sim.now(), sim::us(1000)) << "dead deadline stretched the run";
}

/// One counted packet from node (1,0,0) to node 0's slice, awaited with a
/// plain counter poll or, when `timeout` > 0, through watchCounter.
struct OnePacketWait {
  Fixture f;
  NetworkClient& dst = f.machine.client({0, kSlice0});
  core::WatchdogReport report;
  sim::Time resumedAt = -1;
  explicit OnePacketWait(sim::Time timeout) {
    auto waiter = [](OnePacketWait& w, sim::Time t) -> Task {
      if (t > 0)
        w.report = co_await core::watchCounter(w.dst, 0, 1, t);
      else
        co_await w.dst.waitCounter(0, 1);
      w.resumedAt = w.f.sim.now();
    };
    f.sim.spawn(waiter(*this, timeout));
    NetworkClient::SendArgs args;
    args.dst = dst.addr();
    args.counterId = 0;
    f.machine.client({f.nodeAt(1, 0, 0), kSlice0}).post(args);
    f.sim.run();
  }
};

TEST(Watchdog, CounterWinLeavesThePlainWaitsSchedule) {
  // The retracted deadline took no seq: the armed wait runs the plain
  // poll's exact schedule.
  OnePacketWait plain(0);
  OnePacketWait armed(sim::us(1000));
  EXPECT_FALSE(armed.report.timedOut);
  EXPECT_EQ(armed.report.arrived, 1u);
  EXPECT_EQ(armed.report.resolvedAt, plain.resumedAt);
  EXPECT_EQ(armed.resumedAt, plain.resumedAt);
  EXPECT_EQ(armed.f.sim.eventsProcessed(), plain.f.sim.eventsProcessed());
  EXPECT_EQ(armed.f.sim.scheduleDigest(), plain.f.sim.scheduleDigest());
}

TEST(Watchdog, DeadlineInsideTheWakesPollTimesOutAndATieGoesToTheCounter) {
  // The packet lands a poll latency before the plain wait resumes. A
  // deadline between the two still wins: it retracts the met waiter, whose
  // wake then runs as a no-op. A deadline on the wake's own instant loses
  // (the tie rule), so the wait resolves exactly as the plain one.
  const sim::Time resumes = OnePacketWait(0).resumedAt;
  OnePacketWait inside(resumes - 1);
  ASSERT_GT(inside.dst.pollLatency(), 1);
  EXPECT_TRUE(inside.report.timedOut);
  EXPECT_EQ(inside.report.arrived, 1u) << "the counter was already met";
  EXPECT_TRUE(inside.report.missing.empty());
  EXPECT_EQ(inside.resumedAt, resumes - 1);
  EXPECT_EQ(inside.dst.counterWaiters(0), 0u);

  OnePacketWait tie(resumes);
  EXPECT_FALSE(tie.report.timedOut);
  EXPECT_EQ(tie.resumedAt, resumes);
}

TEST(Watchdog, OwedAfterArrivalsSeesFullHistory) {
  // Sources are tallied from counter creation, so a wait that starts after
  // packets have already arrived must still credit them (the old per-call
  // opt-in lost every pre-tracking increment and overstated the missing
  // packets).
  Fixture f;
  NetworkClient& dst = f.machine.client({0, kSlice0});
  const int src1 = f.nodeAt(1, 0, 0), src2 = f.nodeAt(2, 0, 0);
  NetworkClient::SendArgs args;
  args.dst = dst.addr();
  args.counterId = 0;
  f.machine.client({src1, kSlice0}).post(args);  // 1 of 2 expected
  f.machine.client({src2, kSlice0}).post(args);  // 2 of 2 expected
  f.machine.client({src2, kSlice0}).post(args);
  f.sim.run();  // all three arrive BEFORE any expectation is declared

  const verify::SourceCount owed[] = {{src1, 2}, {src2, 2}};
  core::WatchdogReport report;
  auto waiter = [&]() -> Task {
    // 3 arrived; src1 still owes one
    report = co_await core::watchCounter(dst, 0, 4, sim::us(1), owed);
  };
  f.sim.spawn(waiter());
  f.sim.run();

  EXPECT_TRUE(report.timedOut);
  EXPECT_EQ(report.arrived, 3u);
  ASSERT_EQ(report.missing.size(), 1u) << "pre-tracking arrivals were lost";
  EXPECT_EQ(report.missing[0].node, src1);
  EXPECT_EQ(report.missing[0].arrived, 1u);
  EXPECT_EQ(report.missing[0].expected, 2u);
}

// --- drop registry ---------------------------------------------------------

TEST(DropRegistry, TakeConsumesPerReceiver) {
  Fixture f;
  core::DropRegistry reg(f.machine);
  DropTraversals fm({0});
  f.machine.setFaultModel(&fm);

  ClientAddr dst{f.nodeAt(1, 0, 0), kSlice0};
  NetworkClient::SendArgs args;
  args.dst = dst;
  args.counterId = 3;
  args.inOrder = true;
  f.machine.client({0, kSlice0}).post(args);
  f.sim.run();

  EXPECT_EQ(reg.dropsObserved(), 1u);
  EXPECT_EQ(reg.pending(), 1u);
  EXPECT_TRUE(reg.take(/*counterId=*/0, 0, dst).empty()) << "wrong counter";
  EXPECT_TRUE(reg.take(3, /*srcNode=*/5, dst).empty()) << "wrong source";
  auto got = reg.take(3, 0, dst);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0]->counterId, 3);
  EXPECT_TRUE(reg.take(3, 0, dst).empty()) << "take must consume";
  EXPECT_EQ(reg.pending(), 0u);
  reg.prune(f.sim.now() + 1);
  EXPECT_EQ(reg.dropsObserved(), 1u);  // prune never forgets the tally
}

// --- end-to-end recovery ---------------------------------------------------

TEST(Recovery, DroppedCountedWriteIsResentAndCompletes) {
  // Unicast e2e: 3 counted writes, the first one dropped at cap exhaustion.
  // The recoverable wait times out, diagnoses the short source, replays the
  // lost payload from the registry, and completes — with the data intact.
  Fixture f;
  core::DropRegistry reg(f.machine);
  DropTraversals fm({0});
  f.machine.setFaultModel(&fm);

  const int srcNode = f.nodeAt(1, 0, 0);
  ClientAddr dst{0, kSlice0};
  NetworkClient& dstClient = f.machine.client(dst);
  core::RecoveryStats stats;
  const core::RecoveryHooks hooks{
      .registry = &reg,
      .config = {.timeout = sim::us(2), .maxResends = 3,
                 .resendBackoff = sim::us(1)},
      .stats = &stats};
  const verify::SourceCount owed[] = {{srcNode, 3}};
  bool done = false;
  auto waiter = [&]() -> Task {
    co_await core::recoverCounted(dstClient, 0, 3, owed, hooks);
    done = true;
  };
  f.sim.spawn(waiter());
  for (std::uint64_t i = 0; i < 3; ++i) {
    std::uint64_t value = 0xabc0 + i;
    NetworkClient::SendArgs args;
    args.dst = dst;
    args.counterId = 0;
    args.address = std::uint32_t(i) * 8;
    args.inOrder = true;
    args.payload = net::makePayload(&value, sizeof value);
    f.machine.client({srcNode, kSlice0}).post(args);
  }
  f.sim.run();

  EXPECT_TRUE(done);
  EXPECT_EQ(dstClient.counterValue(0), 3u);
  EXPECT_EQ(f.machine.stats().linkFailures, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.resends, 1u);
  EXPECT_EQ(stats.hardFailures, 0u);
  for (std::uint64_t i = 0; i < 3; ++i)
    EXPECT_EQ(dstClient.read<std::uint64_t>(std::uint32_t(i) * 8), 0xabc0 + i)
        << "slot " << i;
}

TEST(Recovery, MulticastResendTargetsOnlyDeniedReceivers) {
  // A multicast replica dropped mid-tree: the subtree beyond the failed
  // link is denied, everyone before it got their copy. Recovery must
  // re-send to exactly the denied receiver — re-bumping the others would
  // corrupt their counter arithmetic.
  Fixture f;
  core::DropRegistry reg(f.machine);
  const int n0 = f.nodeAt(0, 0, 0), n1 = f.nodeAt(1, 0, 0),
            n2 = f.nodeAt(2, 0, 0);
  // Hand-built chain pattern 0 -> 1 -> 2 along X+ delivering to slice0.
  const int pat = 7;
  f.machine.setMulticastPattern(n0, pat, {.clientMask = 0, .linkMask = 1u << 0});
  f.machine.setMulticastPattern(
      n1, pat, {.clientMask = 1u << kSlice0, .linkMask = 1u << 0});
  f.machine.setMulticastPattern(n2, pat,
                                {.clientMask = 1u << kSlice0, .linkMask = 0});
  // Traversal 0 is the 0->1 hop, traversal 1 the 1->2 hop: drop the latter.
  DropTraversals fm({1});
  f.machine.setFaultModel(&fm);

  NetworkClient& r1 = f.machine.client({n1, kSlice0});
  NetworkClient& r2 = f.machine.client({n2, kSlice0});
  core::RecoveryStats stats;
  const core::RecoveryHooks hooks{
      .registry = &reg,
      .config = {.timeout = sim::us(2), .maxResends = 2,
                 .resendBackoff = sim::us(1)},
      .stats = &stats};
  const verify::SourceCount owed[] = {{n0, 1}};
  bool done = false;
  auto waiter = [&]() -> Task {
    co_await core::recoverCounted(r2, 0, 1, owed, hooks);
    done = true;
  };
  f.sim.spawn(waiter());
  std::uint64_t value = 0xfeed;
  NetworkClient::SendArgs args;
  args.multicastPattern = pat;
  args.counterId = 0;
  args.inOrder = true;
  args.payload = net::makePayload(&value, sizeof value);
  f.machine.client({n0, kSlice0}).post(args);
  f.sim.run();

  EXPECT_TRUE(done);
  EXPECT_EQ(r1.counterValue(0), 1u) << "already-served receiver re-bumped";
  EXPECT_EQ(r2.counterValue(0), 1u);
  EXPECT_EQ(r2.read<std::uint64_t>(0), 0xfeedu);
  EXPECT_EQ(stats.resends, 1u);
  EXPECT_EQ(f.machine.stats().linkFailures, 1u);
}

TEST(Recovery, TrickleProgressRoundsDoNotChargeTheResendBudget) {
  // Cascading recoveries: a waiter whose packets trickle in (because the
  // upstream sender is itself mid-recovery) keeps timing out, but every
  // round observes the counter advancing. Such progress rounds must be
  // forgiven — with maxResends = 0 the old fixed-budget loop would have
  // hard-failed on the very first timeout, even though nothing was lost.
  // Nothing is dropped, so every round's replay finds the registry empty.
  Fixture f;
  core::DropRegistry reg(f.machine);
  const int srcNode = f.nodeAt(1, 0, 0);
  ClientAddr dst{0, kSlice0};
  NetworkClient& dstClient = f.machine.client(dst);
  core::RecoveryStats stats;
  const core::RecoveryHooks hooks{
      .registry = &reg,
      // zero budget: only progress keeps the wait alive
      .config = {.timeout = sim::us(2), .maxResends = 0},
      .stats = &stats};
  const verify::SourceCount owed[] = {{srcNode, 4}};
  bool done = false;
  auto waiter = [&]() -> Task {
    co_await core::recoverCounted(dstClient, 0, 4, owed, hooks);
    done = true;
  };
  f.sim.spawn(waiter());
  // One packet per 2us round, offset so each lands mid-window: arrivals at
  // ~1us, ~3us, ~5us, ~7us against deadlines at 2us, 4us, 6us (then the
  // fourth arrival completes the wait before an eighth-microsecond round).
  for (std::uint64_t i = 0; i < 4; ++i) {
    f.sim.after(sim::us(1) + sim::us(2) * i, [&f, srcNode, dst, i] {
      std::uint64_t value = 0xcafe00 + i;
      NetworkClient::SendArgs args;
      args.dst = dst;
      args.counterId = 0;
      args.address = std::uint32_t(i) * 8;
      args.inOrder = true;
      args.payload = net::makePayload(&value, sizeof value);
      f.machine.client({srcNode, kSlice0}).post(args);
    });
  }
  f.sim.run();

  EXPECT_TRUE(done);
  EXPECT_EQ(dstClient.counterValue(0), 4u);
  EXPECT_EQ(stats.timeouts, 3u);        // deadlines at 2, 4, 6 us
  EXPECT_EQ(stats.progressRounds, 3u);  // every one forgiven
  EXPECT_EQ(stats.resends, 0u);
  EXPECT_EQ(stats.hardFailures, 0u);
}

TEST(Recovery, StalledTrickleStillExhaustsTheBudget) {
  // The forgiveness must not defeat the bound: once the trickle stops, the
  // counter stops advancing and the stalled rounds burn the budget as
  // before — a packet the registry cannot replay still hard-fails.
  Fixture f;
  core::DropRegistry reg(f.machine);
  const int srcNode = f.nodeAt(1, 0, 0);
  NetworkClient& dstClient = f.machine.client({0, kSlice0});
  core::RecoveryStats stats;
  const core::RecoveryHooks hooks{
      .registry = &reg,
      .config = {.timeout = sim::us(2), .maxResends = 1},
      .stats = &stats};
  const verify::SourceCount owed[] = {{srcNode, 2}};
  auto waiter = [&]() -> Task {
    co_await core::recoverCounted(dstClient, 0, 2, owed, hooks);
  };
  f.sim.spawn(waiter());
  NetworkClient::SendArgs args;
  args.dst = {0, kSlice0};
  args.counterId = 0;
  args.inOrder = true;
  // The first packet arrives (progress); the second is never sent, so the
  // registry holds nothing to replay and the rounds after it stall.
  f.machine.client({srcNode, kSlice0}).post(args);

  EXPECT_THROW(f.sim.run(), core::RecoveryFailure);
  EXPECT_EQ(stats.hardFailures, 1u);
  EXPECT_EQ(stats.progressRounds, 1u);  // round 1 saw the first packet
  EXPECT_EQ(stats.timeouts, 3u);  // progress round + initial + 1 resend
}

TEST(Recovery, ExhaustedResendBudgetHardFailsWithReport) {
  // When every copy (original and all replays) is lost, the wait must not
  // retry forever: after maxResends rounds it throws a RecoveryFailure
  // carrying the final diagnosis, which the simulator surfaces from run().
  Fixture f;
  core::DropRegistry reg(f.machine);
  DropEverything fm;
  f.machine.setFaultModel(&fm);

  const int srcNode = f.nodeAt(1, 0, 0);
  NetworkClient& dst = f.machine.client({0, kSlice0});
  core::RecoveryStats stats;
  const core::RecoveryHooks hooks{
      .registry = &reg,
      .config = {.timeout = sim::us(1), .maxResends = 2,
                 .resendBackoff = sim::us(1)},
      .stats = &stats};
  const verify::SourceCount owed[] = {{srcNode, 1}};
  auto waiter = [&]() -> Task {
    co_await core::recoverCounted(dst, 0, 1, owed, hooks);
  };
  f.sim.spawn(waiter());
  NetworkClient::SendArgs args;
  args.dst = dst.addr();
  args.counterId = 0;
  args.inOrder = true;
  f.machine.client({srcNode, kSlice0}).post(args);

  try {
    f.sim.run();
    FAIL() << "expected RecoveryFailure";
  } catch (const core::RecoveryFailure& e) {
    EXPECT_TRUE(e.report.timedOut);
    EXPECT_EQ(e.report.expected, 1u);
    EXPECT_EQ(e.report.arrived, 0u);
    ASSERT_EQ(e.report.missing.size(), 1u);
    EXPECT_EQ(e.report.missing[0].node, srcNode);
    EXPECT_NE(std::string(e.what()).find("TIMED OUT"), std::string::npos);
  }
  EXPECT_EQ(stats.hardFailures, 1u);
  EXPECT_EQ(stats.timeouts, 3u);  // initial attempt + 2 resend rounds
  EXPECT_GE(f.machine.stats().linkFailures, 3u);  // original + both resends
}

// --- satellite: replays must route around a link already marked failed -----

TEST(Recovery, ReplayRoutesAroundALinkMarkedFailed) {
  // The +x link out of node 0 is permanently dead. The original unicast
  // 0 -> (1,1,0) prefers x-then-y, dies on that link, and marks it failed.
  // The replay rides with degradedRoute set, so routing must detour (y
  // first, then x out of a healthy node) instead of feeding the replay to
  // the same dead link — which would burn the whole resend budget and
  // hard-fail a recoverable situation.
  Fixture f;
  core::DropRegistry reg(f.machine);
  DeadLink fm(0, 0, +1);
  f.machine.setFaultModel(&fm);

  ClientAddr dst{f.nodeAt(1, 1, 0), kSlice0};
  NetworkClient& dstClient = f.machine.client(dst);
  core::RecoveryStats stats;
  const core::RecoveryHooks hooks{
      .registry = &reg,
      .config = {.timeout = sim::us(2), .maxResends = 2,
                 .resendBackoff = sim::us(1)},
      .stats = &stats};
  const verify::SourceCount owed[] = {{0, 1}};
  bool done = false;
  auto waiter = [&]() -> Task {
    co_await core::recoverCounted(dstClient, 0, 1, owed, hooks);
    done = true;
  };
  f.sim.spawn(waiter());
  std::uint64_t value = 0xbeef;
  NetworkClient::SendArgs args;
  args.dst = dst;
  args.counterId = 0;
  args.inOrder = true;
  args.payload = net::makePayload(&value, sizeof value);
  f.machine.client({0, kSlice0}).post(args);
  f.sim.run();

  EXPECT_TRUE(done);
  EXPECT_EQ(dstClient.counterValue(0), 1u);
  EXPECT_EQ(dstClient.read<std::uint64_t>(0), 0xbeefu);
  EXPECT_EQ(stats.resends, 1u) << "one replay must suffice";
  EXPECT_EQ(stats.hardFailures, 0u);
  EXPECT_EQ(f.machine.stats().linkFailures, 1u)
      << "the replay must never touch the marked link";
  EXPECT_GE(f.machine.stats().faultReroutes, 1u)
      << "the replay was not rerouted";
}

TEST(Recovery, ReinjectedPacketDeliversLikeAFreshSend) {
  // Machine::inject() mutates the shared Packet object (injectedAt,
  // routeSalt, tailLag). A recovery layer that holds the PacketPtr and
  // re-injects it directly must not inherit the first transit's tail lag —
  // observable exactly when the replay's own path would not set one: a
  // same-node delivery pays no wire serialization, so a stale lag from a
  // prior hop silently postpones the commit.
  Fixture f({2, 1, 1});
  std::vector<std::byte> data(64, std::byte{0x5a});

  // First transit: one hop with a 64 B payload, which leaves a nonzero
  // tailLag on the packet object.
  NetworkClient::SendArgs args;
  args.dst = {f.nodeAt(1, 0, 0), kSlice0};
  args.counterId = 0;
  args.payload = net::makePayload(data.data(), data.size());
  net::PacketPtr held = f.machine.client({0, kSlice0}).post(args);
  f.sim.run();
  ASSERT_EQ(f.machine.client(args.dst).counterValue(0), 1u);

  // Inject and run to the delivery commit (the last event), returning how
  // long the injection-to-commit pipeline took.
  auto localDelivery = [&](const net::PacketPtr& p) {
    sim::Time t0 = f.sim.now();
    f.machine.inject(p);
    f.sim.run();
    return f.sim.now() - t0;
  };

  // Replay the held packet to a destination on the source node itself.
  held->dst = {0, net::kSlice1};
  held->counterId = 1;
  sim::Time replayed = localDelivery(held);

  // Reference: a fresh packet making the identical local delivery.
  net::PacketPtr fresh = net::allocatePacket();
  fresh->src = held->src;
  fresh->dst = held->dst;
  fresh->counterId = held->counterId;
  fresh->address = held->address;
  fresh->payload = held->payload;
  sim::Time freshTime = localDelivery(fresh);

  EXPECT_EQ(replayed, freshTime)
      << "stale tailLag from the first transit leaked into the replay";
  EXPECT_EQ(f.machine.client({0, net::kSlice1}).counterValue(1), 2u);
}

// --- per-phase drops: FFT, all-reduce stages, all-reduce fan-out, flush ----

TEST(Recovery, FftGatherDropIsResentAndStaysBitIdentical) {
  // First x-link traversal of the forward FFT = a gather packet of the
  // dim-0 pass. Armed, the owner's gather wait times out, replays the lost
  // line segment, and the transform still matches the host FFT bitwise.
  Fixture f({2, 2, 2});
  core::DropRegistry reg(f.machine);
  core::RecoveryStats stats;
  fft::DistributedFft3D dist(f.machine, 8, 8, 8, {});
  dist.setRecovery(testHooks(reg, stats));
  DropOnDim fm(0, {0});
  f.machine.setFaultModel(&fm);

  fft::Grid3D ref(8, 8, 8);
  sim::Rng rng(17);
  for (auto& x : ref.data()) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  dist.loadGrid(ref.data());
  auto task = [](fft::DistributedFft3D& d, int n) -> Task {
    co_await d.run(n, false);
  };
  for (int n = 0; n < f.machine.numNodes(); ++n) f.sim.spawn(task(dist, n));
  f.sim.run();
  fft::fft3d(ref, false);

  auto got = dist.extractGrid();
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], ref.data()[i]) << "point " << i;
  EXPECT_EQ(f.machine.stats().linkFailures, 1u);
  EXPECT_EQ(reg.dropsObserved(), 1u);
  EXPECT_GE(stats.resends, 1u);
  EXPECT_EQ(stats.hardFailures, 0u);
}

void runAllReduceWithDrop(int dropDim, const char* what) {
  // On a {4,1,4} torus the dim-ordered all-reduce has exactly two phases:
  // the x line broadcasts (a reduction stage) ride only dim-0 links, the z
  // line broadcasts (the final stage, whose arrival fans the result out to
  // every node) only dim-2 links — dropDim selects which one loses a
  // replica.
  Fixture f({4, 1, 4});
  core::DropRegistry reg(f.machine);
  core::RecoveryStats stats;
  core::DimOrderedAllReduce reduce(f.machine);
  reduce.setRecovery(testHooks(reg, stats));
  DropOnDim fm(dropDim, {0});
  f.machine.setFaultModel(&fm);

  const int n = f.machine.numNodes();
  std::vector<std::vector<double>> out;
  out.resize(std::size_t(n));
  auto task = [](core::DimOrderedAllReduce& r, int node,
                 std::vector<double> in, std::vector<double>* o) -> Task {
    co_await r.run(node, std::move(in), o);
  };
  double expect = 0.0;
  for (int node = 0; node < n; ++node) {
    std::vector<double> in{double(node + 1)};  // exact in double arithmetic
    expect += in[0];
    f.sim.spawn(task(reduce, node, std::move(in), &out[std::size_t(node)]));
  }
  f.sim.run();

  for (int node = 0; node < n; ++node) {
    ASSERT_EQ(out[std::size_t(node)].size(), 1u) << what << " node " << node;
    EXPECT_EQ(out[std::size_t(node)][0], expect) << what << " node " << node;
  }
  EXPECT_EQ(f.machine.stats().linkFailures, 1u) << what;
  EXPECT_GE(stats.resends, 1u) << what;
  EXPECT_EQ(stats.hardFailures, 0u) << what;
}

TEST(Recovery, AllReduceStageDropIsResentAndCompletes) {
  runAllReduceWithDrop(0, "reduction-stage drop");
}

TEST(Recovery, AllReduceResultFanoutDropIsResentAndCompletes) {
  runAllReduceWithDrop(2, "result-fanout drop");
}

TEST(Recovery, ArmingAfterARunThrows) {
  // A disarmed round keeps no per-source totals, so a wait armed after it
  // would find nothing missing and never replay: arming late is refused.
  Fixture f({2, 2, 2});
  core::DropRegistry reg(f.machine);
  core::RecoveryStats stats;
  core::DimOrderedAllReduce reduce(f.machine);
  fft::DistributedFft3D dist(f.machine, 4, 4, 4, {});
  EXPECT_NO_THROW(reduce.setRecovery(testHooks(reg, stats)));
  EXPECT_NO_THROW(dist.setRecovery(testHooks(reg, stats)));
  auto reduceTask = [](core::DimOrderedAllReduce& r, int n) -> Task {
    co_await r.barrier(n);
  };
  auto fftTask = [](fft::DistributedFft3D& d, int n) -> Task {
    co_await d.run(n, false);
  };
  for (int n = 0; n < f.machine.numNodes(); ++n) {
    f.sim.spawn(reduceTask(reduce, n));
    f.sim.spawn(fftTask(dist, n));
  }
  f.sim.run();
  EXPECT_THROW(reduce.setRecovery(testHooks(reg, stats)), std::logic_error);
  EXPECT_THROW(dist.setRecovery(testHooks(reg, stats)), std::logic_error);
  EXPECT_THROW(reduce.setRecovery({}), std::logic_error);
}

md::MDSystem migratingSystem() {
  md::SyntheticSystemParams sp;
  sp.targetAtoms = 1536;
  sp.temperature = 0.8;
  sp.seed = 11;
  return md::buildSyntheticSystem(sp);
}

md::AntonMdConfig migratingConfig() {
  md::AntonMdConfig cfg;
  cfg.force.cutoff = 2.2;
  cfg.ewald.grid = 16;
  cfg.homeBoxMarginFrac = 0.10;
  cfg.thermostatTau = 0.0;
  cfg.longRangeInterval = 3;  // keep the 2-step run short-range only
  cfg.migrationInterval = 1;  // migrate (and flush) every step
  cfg.recoveryTimeoutUs = 5000.0;
  return cfg;
}

void expectSamePositions(const md::MDSystem& clean,
                         const md::MDSystem& recovered) {
  ASSERT_EQ(clean.positions.size(), recovered.positions.size());
  for (std::size_t i = 0; i < clean.positions.size(); ++i) {
    EXPECT_EQ(clean.positions[i].x, recovered.positions[i].x) << "atom " << i;
    EXPECT_EQ(clean.positions[i].y, recovered.positions[i].y) << "atom " << i;
    EXPECT_EQ(clean.positions[i].z, recovered.positions[i].z) << "atom " << i;
  }
}

TEST(Recovery, MigrationFlushDropIsResentAndCompletes) {
  // The flush packets go out before any population count (the only other
  // header-only, 32-byte-wire traffic in a superstep), so dropping the
  // first such traversal hits exactly one migration-flush replica. Armed,
  // the shorted neighbor's flush wait replays it; the trajectory must match
  // a fault-free run bit for bit (recovery re-delivers the identical
  // payload-free signal).
  const md::MDSystem sys = migratingSystem();
  const md::AntonMdConfig cfg = migratingConfig();

  auto run = [&](bool faulted) {
    sim::Simulator sim;
    Machine machine(sim, {4, 4, 4});
    DropNthOfWireSize fm(32, 0);
    if (faulted) machine.setFaultModel(&fm);
    md::AntonMdApp app(machine, sys, cfg);
    app.runSteps(2);
    if (faulted) {
      EXPECT_EQ(machine.stats().linkFailures, 1u);
      EXPECT_EQ(app.dropsObserved(), 1u);
      EXPECT_GE(app.recoveryStats().resends, 1u);
      EXPECT_EQ(app.recoveryStats().hardFailures, 0u);
    }
    return app.gatherSystem();
  };
  md::MDSystem clean = run(false);
  md::MDSystem recovered = run(true);
  expectSamePositions(clean, recovered);
}

TEST(Recovery, PopulationCountDropIsResentInTheNextStep) {
  // Each node multicasts its new population to the HTIS units importing
  // its box at the end of migration, after every flush it waits on, so the
  // last header-only traversal of a migrating step is a count packet. Lost,
  // nothing in that step waits for it (so nothing is replayed yet); the
  // next step's count wait diagnoses and replays it from the registry, and
  // the trajectory matches a fault-free run bit for bit.
  const md::MDSystem sys = migratingSystem();
  const md::AntonMdConfig cfg = migratingConfig();

  std::uint64_t headerOnly = 0;
  auto run = [&](DropNthOfWireSize& fm, bool faulted) {
    sim::Simulator sim;
    Machine machine(sim, {4, 4, 4});
    machine.setFaultModel(&fm);
    md::AntonMdApp app(machine, sys, cfg);
    app.runSteps(1);
    if (faulted) {
      EXPECT_EQ(app.dropsObserved(), 1u);
      EXPECT_EQ(app.recoveryStats().resends, 0u)
          << "the lost packet was awaited in its own step: not a count";
    } else {
      headerOnly = fm.seen;
    }
    app.runSteps(1);
    if (faulted) {
      EXPECT_EQ(machine.stats().linkFailures, 1u);
      EXPECT_GE(app.recoveryStats().resends, 1u);
      EXPECT_EQ(app.recoveryStats().hardFailures, 0u);
    }
    return app.gatherSystem();
  };
  DropNthOfWireSize none(32, ~std::uint64_t{0});
  md::MDSystem clean = run(none, false);
  ASSERT_GT(headerOnly, 0u);
  DropNthOfWireSize last(32, headerOnly - 1);
  md::MDSystem recovered = run(last, true);
  expectSamePositions(clean, recovered);
}

}  // namespace
}  // namespace anton
