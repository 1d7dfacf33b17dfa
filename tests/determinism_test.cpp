// Determinism regression: the same seeded workload must produce bit-identical
// MachineStats, memories, counters, and MD positions across runs — with no
// fault plan, with a zero-fault plan (which must also match the no-plan
// run exactly), and with a nonzero bit-error plan re-run under the same
// seed. This protects the seedable-RNG contract the fault scheduler relies
// on: all fault randomness lives in the plan's own RNG, drawn in the
// deterministic traversal order of the event kernel.
#include <gtest/gtest.h>

#include <cstdint>

#include "fault/plan.hpp"
#include "md/anton_app.hpp"
#include "net/machine.hpp"
#include "sim/causal_log.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "trace/activity.hpp"
#include "util/hotpath.hpp"

namespace anton {
namespace {

// FNV-1a over every client memory and counter bank of the machine.
std::uint64_t machineDigest(net::Machine& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (int n = 0; n < m.numNodes(); ++n) {
    for (int c = 0; c < net::kClientsPerNode; ++c) {
      net::NetworkClient& cl = m.client({n, c});
      for (std::byte b : cl.memory()) {
        h ^= std::uint64_t(b);
        h *= 0x100000001b3ULL;
      }
      for (int k = 0; k < cl.numCounters(); ++k) mix(cl.counterValue(k));
    }
  }
  return h;
}

struct RunResult {
  net::MachineStats stats;
  std::uint64_t digest = 0;
  sim::Time finalTime = 0;
};

// A seeded random traffic storm: writes and accumulations of varying sizes
// between random clients, then drain.
RunResult trafficStorm(std::uint64_t seed, fault::FaultPlan* plan) {
  sim::Simulator sim;
  net::Machine m(sim, {4, 4, 4});
  if (plan != nullptr) m.setFaultModel(plan);
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
  return {m.stats(), machineDigest(m), sim.now()};
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

TEST(Determinism, PooledHotPathIsBitIdenticalToTheLegacyKernel) {
  // The zero-allocation machinery (slab pools, inline event storage,
  // batched link drains) is host-side only: flipping every knob off —
  // recovering the seed's heap-allocating, event-per-traversal kernel —
  // must leave stats, memories, counters, the final clock AND the full
  // activity trace (every link busy window, in emission order) bitwise
  // unchanged.
  auto storm = [](bool hot) {
    util::ScopedHotPath scoped(hot);
    sim::Simulator sim;
    net::Machine m(sim, {4, 4, 4});
    trace::ActivityTrace tr;
    m.setTrace(&tr);
    sim::Rng rng(7);
    for (int i = 0; i < 400; ++i) {
      int srcNode = int(rng.below(std::uint64_t(m.numNodes())));
      int srcClient = int(rng.below(4));
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
    return std::tuple{m.stats(), machineDigest(m), sim.now(), tr.csv()};
  };
  EXPECT_EQ(storm(true), storm(false));
}

TEST(Determinism, CausalTraceIsBitIdenticalAcrossHotPathModes) {
  // The causal-order oracle (sim/causal_log.hpp) must not perturb the event
  // order, and its recorded trace must be invariant under the hot-path
  // knobs: batched link drains attribute arrivals at their reserveSeq()
  // point — the exact spot the legacy path consumes a seq — so the full
  // (t, seq, parent, node, link) trace digests identically in both modes.
  auto storm = [](bool hot, sim::CausalLog& log) {
    util::ScopedHotPath scoped(hot);
    sim::ScopedCausalOracle oracle(log);
    sim::Simulator sim;
    net::Machine m(sim, {4, 4, 4});
    sim::Rng rng(7);
    for (int i = 0; i < 400; ++i) {
      int srcNode = int(rng.below(std::uint64_t(m.numNodes())));
      int srcClient = int(rng.below(4));
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
    return std::tuple{m.stats(), machineDigest(m), sim.now()};
  };
  sim::CausalLog pooled, legacy;
  EXPECT_EQ(storm(true, pooled), storm(false, legacy));
  ASSERT_FALSE(pooled.records().empty());
  EXPECT_EQ(pooled.records().size(), legacy.records().size());
  EXPECT_EQ(pooled.digest(), legacy.digest());
  // Field-level, not just the digest: the first divergence (if any) names
  // itself in the failure output.
  for (std::size_t i = 0; i < pooled.records().size(); ++i)
    ASSERT_EQ(pooled.records()[i] == legacy.records()[i], true)
        << "record " << i << " diverges between hot-path modes";
  // The trace contains attributed link crossings (the oracle's subject).
  bool anyLink = false;
  for (const sim::CausalRecord& r : pooled.records())
    anyLink = anyLink || r.link != 0;
  EXPECT_TRUE(anyLink);
}

TEST(Determinism, AttachedOracleLeavesTheScheduleUntouched) {
  // Recording must be observation-only: the same storm with and without a
  // log attached lands on identical stats, memories and final clock.
  RunResult bare = trafficStorm(7, nullptr);
  sim::CausalLog log;
  sim::ScopedCausalOracle oracle(log);
  RunResult traced = trafficStorm(7, nullptr);
  EXPECT_EQ(bare.stats, traced.stats);
  EXPECT_EQ(bare.digest, traced.digest);
  EXPECT_EQ(bare.finalTime, traced.finalTime);
  EXPECT_FALSE(log.records().empty());
}

TEST(Determinism, MdPositionsMatchBetweenPooledAndLegacyHotPaths) {
  // End-to-end: three MD supersteps (forces, FFT, migration, all-reduce)
  // under the pooled kernel reproduce the legacy trajectory exactly.
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

  auto run = [&](bool hot) {
    util::ScopedHotPath scoped(hot);
    sim::Simulator sim;
    net::Machine m(sim, {4, 4, 4});
    md::AntonMdApp app(m, sys, cfg);
    app.runSteps(3);
    return std::pair{app.gatherSystem(), sim.now()};
  };
  auto [pooled, pooledTime] = run(true);
  auto [legacy, legacyTime] = run(false);

  EXPECT_EQ(pooledTime, legacyTime);
  ASSERT_EQ(pooled.numAtoms(), legacy.numAtoms());
  for (int i = 0; i < pooled.numAtoms(); ++i) {
    EXPECT_EQ(pooled.positions[std::size_t(i)],
              legacy.positions[std::size_t(i)]);
    EXPECT_EQ(pooled.velocities[std::size_t(i)],
              legacy.velocities[std::size_t(i)]);
  }
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

}  // namespace
}  // namespace anton
