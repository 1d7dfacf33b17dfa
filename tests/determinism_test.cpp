// Determinism regression: the same seeded workload must produce bit-identical
// MachineStats, memories, counters, and MD positions across runs — with no
// fault plan, with a zero-fault plan (which must also match the no-plan
// run exactly), and with a nonzero bit-error plan re-run under the same
// seed. This protects the seedable-RNG contract the fault scheduler relies
// on: all fault randomness lives in the plan's own RNG, drawn in the
// deterministic traversal order of the event kernel. Two seeded storms and a
// short MD run are also pinned to recorded digests of their outcomes and of
// their executed (t, seq) order (Simulator::scheduleDigest), and so are two
// recovery-armed serve jobs: an idle quickstart MD run and a lossy 8x8x8
// all-reduce whose waits time out and replay.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "fault/plan.hpp"
#include "md/anton_app.hpp"
#include "net/machine.hpp"
#include "pinned_digest.hpp"
#include "sim/rng.hpp"
#include "serve/job_spec.hpp"
#include "serve/runner.hpp"
#include "sim/simulator.hpp"
#include "trace/activity.hpp"

namespace anton {
namespace {

// FNV-1a over every client memory and counter bank of the machine.
std::uint64_t machineDigest(net::Machine& m) {
  PinnedDigest d;
  for (int n = 0; n < m.numNodes(); ++n) {
    for (int c = 0; c < net::kClientsPerNode; ++c) {
      net::NetworkClient& cl = m.client({n, c});
      for (std::byte b : cl.memory()) d.add(b);
      for (int k = 0; k < cl.numCounters(); ++k) d.add(cl.counterValue(k));
    }
  }
  return d.value();
}

struct RunResult {
  net::MachineStats stats;
  std::uint64_t digest = 0;
  sim::Time finalTime = 0;
  std::uint64_t schedule = 0;  ///< Simulator::scheduleDigest()
};

// A seeded random traffic storm: writes and accumulations of varying sizes
// between random clients, then drain.
RunResult trafficStorm(std::uint64_t seed, fault::FaultPlan* plan,
                       trace::ActivityTrace* tr = nullptr) {
  sim::Simulator sim;
  net::Machine m(sim, {4, 4, 4});
  if (plan != nullptr) m.setFaultModel(plan);
  if (tr != nullptr) m.setTrace(tr);
  sim::Rng rng(seed);
  for (int i = 0; i < 400; ++i) {
    int srcNode = int(rng.below(std::uint64_t(m.numNodes())));
    int srcClient = int(rng.below(4));  // slices can always send
    net::NetworkClient::SendArgs args;
    args.dst = {int(rng.below(std::uint64_t(m.numNodes()))),
                int(rng.below(4))};
    args.counterId = int(rng.below(4));
    args.address = std::uint32_t(rng.below(1024)) * 16;
    std::size_t bytes = std::size_t(rng.below(32)) * 8;
    if (bytes != 0) args.payload = net::makeZeroPayload(bytes);
    m.client({srcNode, srcClient}).post(args);
  }
  sim.run();
  return {m.stats(), machineDigest(m), sim.now(), sim.scheduleDigest()};
}

TEST(Determinism, SeededTrafficIsBitIdenticalAcrossRuns) {
  RunResult a = trafficStorm(7, nullptr);
  RunResult b = trafficStorm(7, nullptr);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.finalTime, b.finalTime);
}

TEST(Determinism, ZeroFaultPlanMatchesNoPlanExactly) {
  RunResult bare = trafficStorm(7, nullptr);
  fault::FaultPlan idle;  // no BER, no windows
  RunResult planned = trafficStorm(7, &idle);
  EXPECT_EQ(bare.stats, planned.stats);
  EXPECT_EQ(bare.digest, planned.digest);
  EXPECT_EQ(bare.finalTime, planned.finalTime);
  EXPECT_EQ(planned.stats.crcRetransmits, 0u);
  EXPECT_GT(idle.stats().traversalsSeen, 0u);
}

TEST(Determinism, FaultyRunsReproduceUnderTheSameSeed) {
  fault::FaultConfig fc;
  fc.seed = 123;
  fc.bitErrorRate = 5e-4;
  fault::FaultPlan p1(fc), p2(fc);
  RunResult a = trafficStorm(7, &p1);
  RunResult b = trafficStorm(7, &p2);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.finalTime, b.finalTime);
  EXPECT_GT(a.stats.crcRetransmits, 0u);
  // Faults must have perturbed timing relative to the clean run.
  RunResult clean = trafficStorm(7, nullptr);
  EXPECT_NE(a.finalTime, clean.finalTime);
}

// --- pinned schedule digests -----------------------------------------------
// Recorded while an unpooled reference kernel (heap allocation, one event
// per link traversal) still ran beside this one and matched it bit for bit.
// The (t, seq) digests were recorded in a build where the causal-trace pins
// taken with that reference kernel still passed, so they carry the same
// equivalence. Re-pin only for an intended schedule change, from the digest
// the failing test prints.
constexpr std::uint64_t kStormDigest = 0xf9e9a5923c1f8d83ULL;
constexpr std::uint64_t kStormScheduleDigest = 0xea749fb885d9f65dULL;
// The run migrates at step 2, so step 3's first half-kick depends on the
// forces the migration records carry. The trajectory digests fold in the
// final clock, so they move with the schedule; the physics digests cover
// positions and velocities alone and move only if the trajectory does.
constexpr std::uint64_t kMdTrajectoryDigest = 0x6de9268637241553ULL;
constexpr std::uint64_t kMdTrajectoryHalfShellDigest = 0x06ca0ef4b07dbaa4ULL;
constexpr std::uint64_t kMdPhysicsDigest = 0x55f54c5180eb9095ULL;
constexpr std::uint64_t kMdPhysicsHalfShellDigest = 0xf4fff2821e0ce3f0ULL;
// Every executed (t, seq) of the neutral-territory run: the MD step's event
// order, which the trajectory digests see only through the final clock.
constexpr std::uint64_t kMdScheduleDigest = 0x3049c6ba1f0d255eULL;

TEST(Determinism, TrafficStormMatchesItsPinnedScheduleDigest) {
  // Stats, memories, counters, the final clock and the full activity trace
  // (every link busy window, in emission order).
  trace::ActivityTrace tr;
  RunResult r = trafficStorm(7, nullptr, &tr);
  std::uint64_t digest = PinnedDigest()
                             .add(r.stats)
                             .add(r.digest)
                             .add(r.finalTime)
                             .add(std::string_view(tr.csv()))
                             .value();
  EXPECT_EQ(digest, kStormDigest) << "got " << util::hex64(digest);
  // Every executed (t, seq), in execution order.
  EXPECT_EQ(r.schedule, kStormScheduleDigest)
      << "got " << util::hex64(r.schedule);
}

// --- deep-queue schedule pin ------------------------------------------------
// The pins above run at 4x4x4 with a shallow queue. This storm runs at the
// Table 3 shape (8x8x8) and keeps more events pending at once than a
// 512-node MD step does (~61k on average): 60,000 seeded injections are
// scheduled up front — same-time bursts of thousands, a dense 50 us
// window, and a tail out to 5 ms, far beyond any near-term horizon of the
// kernel's queue. Digests recorded from (or, for the (t, seq) digest, in a
// build still matching a trace pinned on) the binary-heap kernel before the
// bucketed queue replaced it.
constexpr int kDeepInjections = 60000;
constexpr std::uint64_t kDeepStormDigest = 0x85c0f6f3d308fc80ULL;
constexpr std::uint64_t kDeepStormScheduleDigest = 0xefbd54b808480e45ULL;

struct DeepStorm {
  std::uint64_t digest = 0;
  std::uint64_t schedule = 0;  ///< Simulator::scheduleDigest()
  std::size_t pendingAtStart = 0;
};

DeepStorm deepStorm(std::uint64_t seed) {
  sim::Simulator sim;
  net::MachineConfig mc;
  mc.clientMemBytes = 4096;  // 256 16-byte slots per client: writes collide
  mc.countersPerClient = 4;
  net::Machine m(sim, {8, 8, 8}, mc);
  sim::Rng rng(seed);
  std::array<sim::Time, 16> bursts{};
  for (sim::Time& b : bursts) b = sim::Time(rng.below(20'000'000));
  for (int i = 0; i < kDeepInjections; ++i) {
    sim::Time t;
    std::uint64_t mode = rng.below(10);
    if (mode < 4)
      t = bursts[rng.below(bursts.size())];  // ~1,500 injections per instant
    else if (mode < 8)
      t = sim::Time(rng.below(50'000'000));  // dense: 50 us at ps resolution
    else
      t = 100'000'000 + sim::Time(rng.below(4'900'000'000));  // far tail
    struct Post {
      net::Machine* m;
      int srcNode, srcClient, dstNode, dstClient, counter, bytes;
      std::uint32_t address;
      bool accum, inOrder;
      void operator()() const {
        net::NetworkClient::SendArgs args;
        args.type = accum ? net::PacketType::kAccum : net::PacketType::kWrite;
        args.dst = {dstNode, dstClient};
        args.counterId = counter;
        args.address = address;
        args.inOrder = inOrder;
        if (bytes != 0) args.payload = net::makeZeroPayload(std::size_t(bytes));
        m->client({srcNode, srcClient}).post(args);
      }
    };
    Post p{&m, 0, 0, 0, 0, 0, 0, 0, false, false};
    p.srcNode = int(rng.below(std::uint64_t(m.numNodes())));
    p.srcClient = int(rng.below(5));  // slices and the HTIS can send
    p.dstNode = int(rng.below(std::uint64_t(m.numNodes())));
    p.accum = rng.below(5) == 0;
    p.dstClient =
        p.accum ? net::kAccum0 + int(rng.below(2)) : int(rng.below(5));
    p.counter = int(rng.below(4));
    p.bytes = int(rng.below(65)) * 4;  // 0..256, 4-byte multiples
    p.address = std::uint32_t(rng.below(256)) * 16 % (4096 - 256);
    p.inOrder = rng.below(10) == 0;
    sim.at(t, p);
  }
  DeepStorm out;
  out.pendingAtStart = sim.pending();
  sim.run();

  PinnedDigest d;
  d.add(m.stats()).add(sim.now()).add(sim.eventsProcessed());
  for (int n = 0; n < m.numNodes(); ++n) {
    for (int c = 0; c < net::kClientsPerNode; ++c) {
      net::NetworkClient& cl = m.client({n, c});
      std::span<const std::byte> mem = cl.memory();
      d.add(std::string_view(reinterpret_cast<const char*>(mem.data()),
                             mem.size()));
      for (int k = 0; k < cl.numCounters(); ++k) d.add(cl.counterValue(k));
    }
  }
  out.digest = d.value();
  out.schedule = sim.scheduleDigest();
  return out;
}

TEST(Determinism, DeepQueueStormMatchesItsPinnedScheduleDigest) {
  DeepStorm r = deepStorm(29);
  EXPECT_GE(r.pendingAtStart, 50000u) << "the storm no longer runs deep";
  EXPECT_EQ(r.digest, kDeepStormDigest) << "got " << util::hex64(r.digest);
  EXPECT_EQ(r.schedule, kDeepStormScheduleDigest)
      << "got " << util::hex64(r.schedule);
}

struct MdDigests {
  std::uint64_t trajectory;  ///< final clock + positions + velocities
  std::uint64_t physics;     ///< positions + velocities
  std::uint64_t schedule;    ///< Simulator::scheduleDigest()
};

MdDigests mdTrajectoryDigests(md::ImportMethod method) {
  // End-to-end: three MD supersteps (forces, FFT, migration, all-reduce)
  // land on the pinned final clock and position/velocity bit patterns.
  md::SyntheticSystemParams sp;
  sp.targetAtoms = 1536;
  sp.temperature = 0.8;
  sp.seed = 11;
  md::AntonMdConfig cfg;
  cfg.force.cutoff = 2.2;
  cfg.ewald.grid = 16;
  cfg.homeBoxMarginFrac = 0.10;
  cfg.migrationInterval = 2;
  cfg.longRangeInterval = 2;
  cfg.importMethod = method;

  sim::Simulator sim;
  net::Machine m(sim, {4, 4, 4});
  md::AntonMdApp app(m, md::buildSyntheticSystem(sp), cfg);
  app.runSteps(3);
  md::MDSystem out = app.gatherSystem();

  PinnedDigest d, physics;
  d.add(sim.now());
  for (const std::vector<util::Vec3>* vs : {&out.positions, &out.velocities})
    for (const util::Vec3& v : *vs) {
      d.add(v.x).add(v.y).add(v.z);
      physics.add(v.x).add(v.y).add(v.z);
    }
  return {d.value(), physics.value(), sim.scheduleDigest()};
}

TEST(Determinism, MdTrajectoryMatchesItsPinnedDigest) {
  MdDigests d = mdTrajectoryDigests(md::ImportMethod::kNeutralTerritory);
  EXPECT_EQ(d.trajectory, kMdTrajectoryDigest)
      << "got " << util::hex64(d.trajectory);
  EXPECT_EQ(d.physics, kMdPhysicsDigest) << "got " << util::hex64(d.physics);
  EXPECT_EQ(d.schedule, kMdScheduleDigest)
      << "got " << util::hex64(d.schedule);
}

TEST(Determinism, HalfShellMdTrajectoryMatchesItsPinnedDigest) {
  MdDigests d = mdTrajectoryDigests(md::ImportMethod::kHalfShell);
  EXPECT_EQ(d.trajectory, kMdTrajectoryHalfShellDigest)
      << "got " << util::hex64(d.trajectory);
  EXPECT_EQ(d.physics, kMdPhysicsHalfShellDigest)
      << "got " << util::hex64(d.physics);
}

TEST(Determinism, MdPositionsBitIdenticalWithZeroFaultPlan) {
  // The full Anton-mapped MD pipeline: a zero-fault plan must leave the
  // trajectory bit-identical to running without one.
  md::SyntheticSystemParams sp;
  sp.targetAtoms = 1536;
  sp.temperature = 0.8;
  sp.seed = 11;
  md::MDSystem sys = md::buildSyntheticSystem(sp);
  md::AntonMdConfig cfg;
  cfg.force.cutoff = 2.2;
  cfg.ewald.grid = 16;
  cfg.homeBoxMarginFrac = 0.10;
  cfg.migrationInterval = 2;
  cfg.longRangeInterval = 2;

  auto run = [&](fault::FaultPlan* plan) {
    sim::Simulator sim;
    net::Machine m(sim, {4, 4, 4});
    if (plan != nullptr) m.setFaultModel(plan);
    md::AntonMdApp app(m, sys, cfg);
    app.runSteps(3);
    return app.gatherSystem();
  };
  md::MDSystem bare = run(nullptr);
  fault::FaultPlan idle;
  md::MDSystem planned = run(&idle);

  ASSERT_EQ(bare.numAtoms(), planned.numAtoms());
  for (int i = 0; i < bare.numAtoms(); ++i) {
    EXPECT_EQ(bare.positions[std::size_t(i)], planned.positions[std::size_t(i)]);
    EXPECT_EQ(bare.velocities[std::size_t(i)],
              planned.velocities[std::size_t(i)]);
  }
}

TEST(Determinism, MdRecoveryArmedButIdleIsTimingInvisible) {
  // Erasure recovery armed (watchdogs on every counted wait, drop registry
  // installed) under a zero-fault plan: no drop ever occurs, so the
  // trajectory AND the per-step timings must be bit-identical to the
  // recovery-free, plan-free run. This pins the watchdog wake path to the
  // plain waitCounter schedule and the cancelled deadline events to zero
  // timeline cost.
  md::SyntheticSystemParams sp;
  sp.targetAtoms = 1536;
  sp.temperature = 0.8;
  sp.seed = 11;
  md::MDSystem sys = md::buildSyntheticSystem(sp);
  md::AntonMdConfig cfg;
  cfg.force.cutoff = 2.2;
  cfg.ewald.grid = 16;
  cfg.homeBoxMarginFrac = 0.10;
  cfg.migrationInterval = 2;
  cfg.longRangeInterval = 2;

  struct Out {
    md::MDSystem sys;
    std::vector<double> stepUs;
    sim::Time finalTime = 0;
    std::uint64_t timeouts = 0;
  };
  auto run = [&](bool recovery, fault::FaultPlan* plan) {
    md::AntonMdConfig c = cfg;
    // Generous deadline: it must exceed every natural wait in the step, or
    // a spurious timeout would fire (and perturb timing) with no drop.
    if (recovery) c.recoveryTimeoutUs = 10000.0;
    sim::Simulator sim;
    net::Machine m(sim, {4, 4, 4});
    if (plan != nullptr) m.setFaultModel(plan);
    md::AntonMdApp app(m, sys, c);
    app.runSteps(3);
    Out out{app.gatherSystem(), {}, sim.now(), app.recoveryStats().timeouts};
    for (const md::StepTiming& t : app.stepTimings())
      out.stepUs.push_back(t.totalUs);
    return out;
  };
  Out bare = run(false, nullptr);
  fault::FaultPlan idle;
  Out armed = run(true, &idle);

  EXPECT_EQ(armed.timeouts, 0u);
  EXPECT_EQ(bare.finalTime, armed.finalTime);
  ASSERT_EQ(bare.stepUs.size(), armed.stepUs.size());
  for (std::size_t i = 0; i < bare.stepUs.size(); ++i)
    EXPECT_EQ(bare.stepUs[i], armed.stepUs[i]) << "step " << i;
  ASSERT_EQ(bare.sys.numAtoms(), armed.sys.numAtoms());
  for (int i = 0; i < bare.sys.numAtoms(); ++i) {
    EXPECT_EQ(bare.sys.positions[std::size_t(i)],
              armed.sys.positions[std::size_t(i)]);
    EXPECT_EQ(bare.sys.velocities[std::size_t(i)],
              armed.sys.velocities[std::size_t(i)]);
  }
}

// --- armed schedule pins ------------------------------------------------------
// The pins above run with recovery disarmed. An armed wait races its counter
// against a kernel deadline, which takes a seq only when it fires, so arming
// leaves the schedule of a run that loses nothing untouched. These pin the
// armed path: a quickstart MD job with nothing lost, whose schedule must be
// the disarmed job's, and the fault-sweep all-reduce at 8x8x8 and BER 1e-4,
// where waits time out and the lost packets are replayed. The outcome
// digests cover every job metric.
constexpr std::uint64_t kIdleMdScheduleDigest = 0x6d583be5293913a4ULL;
constexpr std::uint64_t kIdleMdEvents = 185'788;
constexpr std::uint64_t kArmedIdleMdOutcomeDigest = 0x6c9fb58a4497dd9dULL;
constexpr std::uint64_t kLossyAllReduceScheduleDigest = 0xb31be5e1c818f1efULL;
constexpr std::uint64_t kLossyAllReduceOutcomeDigest = 0x8190e7049bc230ceULL;

TEST(Determinism, ArmedIdleMdMatchesItsPinnedScheduleDigest) {
  sim::Simulator arena;
  serve::RunOutcome r = serve::runJob(serve::quickstartMdSpec(), arena);
  EXPECT_EQ(r.metrics.at("drops"), 0.0);
  EXPECT_EQ(r.metrics.at("resends"), 0.0);
  EXPECT_EQ(arena.scheduleDigest(), kIdleMdScheduleDigest)
      << "got " << util::hex64(arena.scheduleDigest());
  EXPECT_EQ(arena.eventsProcessed(), kIdleMdEvents);
  EXPECT_EQ(r.digest, kArmedIdleMdOutcomeDigest)
      << "got " << util::hex64(r.digest);
  // The same job disarmed runs the same schedule to the same outcome.
  serve::JobSpec unarmed = serve::quickstartMdSpec();
  unarmed.recoveryTimeoutUs = 0.0;
  sim::Simulator bare;
  EXPECT_EQ(serve::runJob(unarmed, bare).digest, r.digest);
  EXPECT_EQ(bare.scheduleDigest(), arena.scheduleDigest());
  EXPECT_EQ(bare.eventsProcessed(), arena.eventsProcessed());
}

TEST(Determinism, LossyArmedAllReduceMatchesItsPinnedScheduleDigest) {
  sim::Simulator arena;
  serve::RunOutcome r =
      serve::runJob(serve::faultSweepSpec({8, 8, 8}, 1e-4), arena);
  EXPECT_GT(r.metrics.at("resends"), 0.0) << "recovery never fired";
  EXPECT_EQ(r.metrics.at("hard_failures"), 0.0);
  EXPECT_EQ(r.metrics.at("correct"), 1.0);
  EXPECT_EQ(arena.scheduleDigest(), kLossyAllReduceScheduleDigest)
      << "got " << util::hex64(arena.scheduleDigest());
  EXPECT_EQ(r.digest, kLossyAllReduceOutcomeDigest)
      << "got " << util::hex64(r.digest);
}

}  // namespace
}  // namespace anton
