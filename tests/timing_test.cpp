// Static timing analyzer (verify::analyzeTiming) against the live machine.
//
// The contract under test is DESIGN.md §12's soundness story: the static
// critical-path bound never exceeds what the simulator actually takes, the
// shipped plans are violation-free, the seeded-bad plans fire their named
// diagnostics, and the measured-vs-bound comparison is meaningful because
// the live schedule itself is pinned to a recorded digest.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "md/anton_app.hpp"
#include "net/machine.hpp"
#include "net/probe.hpp"
#include "pinned_digest.hpp"
#include "plan_registry.hpp"
#include "sim/simulator.hpp"
#include "verify/timing.hpp"

namespace anton {
namespace {

bool hasCheck(const verify::TimingReport& r, const std::string& check) {
  for (const verify::Violation& v : r.violations)
    if (v.check == check) return true;
  return false;
}

TEST(TimingTest, HealthyGoldenPlansHaveFiniteCleanBounds) {
  for (const std::string& name : tools::goldenPlanNames()) {
    verify::TimingReport r = verify::analyzeTiming(tools::buildNamedPlan(name));
    EXPECT_TRUE(r.ok()) << name << ": " << (r.violations.empty()
                                                ? ""
                                                : r.violations[0].detail);
    EXPECT_GT(r.criticalPathNs, 0.0) << name;
    EXPECT_GT(r.perRoundNs, 0.0) << name;
    EXPECT_GT(r.eventsModeled, 0) << name;
    EXPECT_FALSE(r.bottleneckPath.empty()) << name;
  }
}

TEST(TimingTest, OneHopPingBoundIsSoundAgainstTheMachine) {
  verify::TimingOptions opts;
  opts.rounds = 1;
  verify::TimingReport r =
      verify::analyzeTiming(tools::buildPingPlan({1, 0, 0}), opts);
  ASSERT_TRUE(r.ok());

  sim::Simulator simulator;
  net::Machine machine(simulator, {8, 8, 8});
  double measured = net::oneWayLatencyNs(machine, {0, net::kSlice0},
                                         {1, net::kSlice0},
                                         /*payloadBytes=*/0);
  EXPECT_DOUBLE_EQ(measured, 162.0);  // the paper's headline number
  EXPECT_LE(r.criticalPathNs, measured);
  // The bound is a real budget, not a trivial zero: assembly + one link
  // crossing + delivery alone account for most of the measured latency.
  EXPECT_GE(r.criticalPathNs, 100.0);
}

/// One quickstart MD run; 8 steps covers the full knob cycle (long-range
/// every 2, thermostat every 2, migration every 8), so the last step is the
/// worst-case template round the extracted plan describes.
std::vector<md::StepTiming> runQuickstartMd(
    double* finalNs, net::MachineStats* stats,
    md::ImportMethod method = md::ImportMethod::kNeutralTerritory) {
  sim::Simulator simulator;
  net::Machine machine(simulator, {4, 4, 4});
  md::SyntheticSystemParams sp;
  sp.targetAtoms = 1536;
  sp.seed = 2010;
  md::AntonMdConfig cfg = tools::quickstartMdConfig();
  cfg.importMethod = method;
  md::AntonMdApp app(machine, md::buildSyntheticSystem(sp), cfg);
  app.runSteps(8);
  *finalNs = sim::toNs(simulator.now());
  *stats = machine.stats();
  return app.stepTimings();
}

TEST(TimingTest, MdWorstStepDominatesStaticBound) {
  double finalNs = 0.0;
  net::MachineStats stats;
  std::vector<md::StepTiming> steps = runQuickstartMd(&finalNs, &stats);

  const md::StepTiming* worst = nullptr;
  for (const md::StepTiming& st : steps)
    if (st.longRange && st.thermostat && st.migration) worst = &st;
  ASSERT_NE(worst, nullptr)
      << "no step ran long-range + thermostat + migration in 8 steps";

  verify::TimingReport r =
      verify::analyzeTiming(tools::buildNamedPlan("quickstart-md"));
  ASSERT_TRUE(r.ok());
  // Soundness: the live worst-case step can never beat the static lower
  // bound of the template round it executes.
  EXPECT_GE(worst->totalUs * 1000.0, r.perRoundNs);
  EXPECT_GE(finalNs, r.criticalPathNs);
}

// Recorded like the pins in determinism_test.cpp; re-pin only for an
// intended schedule change, from the digest the failing test prints.
constexpr std::uint64_t kQuickstartMdTimingDigest = 0x0446a43acbc4e774ULL;
// The half-shell ablation's schedule, pinned the same way.
constexpr std::uint64_t kQuickstartMdHalfShellTimingDigest =
    0x278668d1c9e1cbe1ULL;

std::uint64_t quickstartMdTimingDigest(md::ImportMethod method) {
  // The measured step times the oracle compares against the static bound
  // come from a bit-stable simulated schedule: final clock, machine stats
  // and every step's total, FFT and force-wait times are pinned.
  double finalNs = 0.0;
  net::MachineStats stats;
  std::vector<md::StepTiming> steps =
      runQuickstartMd(&finalNs, &stats, method);
  PinnedDigest d;
  d.add(finalNs).add(stats);
  for (const md::StepTiming& st : steps)
    d.add(st.totalUs).add(st.fftUs).add(st.forceWaitUs);
  return d.value();
}

TEST(TimingTest, MdStepTimingsMatchTheirPinnedDigest) {
  std::uint64_t d =
      quickstartMdTimingDigest(md::ImportMethod::kNeutralTerritory);
  EXPECT_EQ(d, kQuickstartMdTimingDigest) << "got " << util::hex64(d);
}

TEST(TimingTest, HalfShellMdStepTimingsMatchTheirPinnedDigest) {
  std::uint64_t d = quickstartMdTimingDigest(md::ImportMethod::kHalfShell);
  EXPECT_EQ(d, kQuickstartMdHalfShellTimingDigest)
      << "got " << util::hex64(d);
}

TEST(TimingTest, DegradedRerouteStaysWithinBlowupFactor) {
  verify::CommPlan plan = tools::buildNamedPlan("fig5-ping");
  verify::TimingOptions opts;
  // The +x link out of (6,4,4) carries only the (4,4,4) pong's x-leg, which
  // still has y and z distance and reroutes minimally (see verify_plans).
  opts.downLinks = {{util::torusIndex({6, 4, 4}, plan.shape), 0, +1}};
  verify::TimingReport r = verify::analyzeTiming(plan, opts);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? ""
                                               : r.violations[0].detail);
  EXPECT_TRUE(r.degradedAnalyzed);
  EXPECT_FALSE(r.degradedStalled);
  EXPECT_GT(r.degradedCriticalPathNs, 0.0);
  EXPECT_LT(r.inflation, opts.degradedBlowupFactor);
}

TEST(TimingTest, SeededContentionFunnelFires) {
  // Three x-line nodes burst 2 KiB packets into node 0 under credit flow
  // control: the wrap link's offered serialization exceeds the claimed
  // per-round budget (the verify_plans --timing selftest, in miniature).
  verify::CommPlan p;
  p.name = "funnel";
  p.shape = {4, 1, 1};
  p.addPhaseEdge("burst", "drain");
  std::vector<verify::SourceCount> bursts;
  for (int n = 1; n < 4; ++n) {
    p.addWrite("burst", {.srcNode = n, .counterId = 0,
                         .dst = {0, net::kSlice0}, .packets = 8,
                         .bytes = 2048});
    bursts.push_back({n, 8});
    p.addWrite("drain",
               {.srcNode = 0, .counterId = 1, .dst = {n, net::kSlice0}});
    p.addExpectation("burst.credit", "burst",
                     {.client = {n, net::kSlice0}, .counterId = 1,
                      .perRound = 1, .recoveryArmed = true},
                     {{{0, 1}}});
  }
  p.addExpectation("drain", "drain",
                   {.client = {0, net::kSlice0}, .counterId = 0,
                    .perRound = 24, .recoveryArmed = true},
                   bursts);

  verify::TimingReport r = verify::analyzeTiming(p);
  EXPECT_TRUE(hasCheck(r, "timing.contention"));
}

TEST(TimingTest, SeededDegradedBlowupFires) {
  verify::CommPlan plan = tools::buildPingPlan({4, 2, 0}, {8, 4, 1});
  plan.writes[0].inOrder = true;  // deterministic route: exact turn pricing
  verify::TimingOptions opts;
  opts.downLinks = {{util::torusIndex({1, 0, 0}, {8, 4, 1}), 0, +1},
                    {util::torusIndex({2, 1, 0}, {8, 4, 1}), 0, +1}};
  net::LatencyConfig lat;
  lat.routerHopEachNs = 500.0;  // expensive on-chip turns
  verify::TimingReport r = verify::analyzeTiming(plan, opts, lat);
  EXPECT_TRUE(hasCheck(r, "timing.degraded-blowup"));
  EXPECT_GT(r.inflation, opts.degradedBlowupFactor);
}

TEST(TimingTest, SeededStalledRouteFires) {
  verify::CommPlan plan = tools::buildPingPlan({1, 0, 0}, {4, 1, 1});
  verify::TimingOptions opts;
  opts.downLinks = {{0, 0, +1}};  // a 1-D line cannot reroute
  verify::TimingReport r = verify::analyzeTiming(plan, opts);
  EXPECT_TRUE(hasCheck(r, "timing.stalled"));
  EXPECT_TRUE(r.degradedStalled);
}

}  // namespace
}  // namespace anton
