// Seeded property sweep of the Anton-mapped MD application.
//
// Torus shape (extent-1 dimensions included), system seed, cutoff and
// migration interval vary per case, under both import rules. Every case must
// hold three properties at once:
//   * the distributed trajectory matches the ReferenceEngine within
//     fixed-point accumulation tolerance;
//   * the extracted communication plan verifies cleanly, and every multicast
//     pattern it installs fits the 256-entry per-node table;
//   * each measured worst-case step (long-range + thermostat + migration) is
//     no faster than the static critical-path bound of its template round.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "md/anton_app.hpp"
#include "net/node.hpp"
#include "sim/rng.hpp"
#include "verify/checks.hpp"
#include "verify/timing.hpp"

namespace anton::md {
namespace {

struct SweepCase {
  util::TorusShape shape;
  ImportMethod method;
  std::uint64_t seed;
  double cutoff;
  int migrationInterval;

  std::string str() const {
    return shape.str() +
           (method == ImportMethod::kHalfShell ? " half-shell" : " NT") +
           " seed " + std::to_string(seed) + " cutoff " +
           std::to_string(cutoff) + " migration every " +
           std::to_string(migrationInterval);
  }
};

void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.str(); }

std::vector<SweepCase> sweepCases() {
  const util::TorusShape shapes[] = {{4, 4, 4}, {4, 4, 1}, {1, 4, 4},
                                     {4, 1, 4}, {1, 1, 4}, {4, 1, 1}};
  const int migration[] = {1, 2, 4};
  sim::Rng rng(0x5eedULL);
  std::vector<SweepCase> out;
  for (ImportMethod method :
       {ImportMethod::kNeutralTerritory, ImportMethod::kHalfShell}) {
    for (const util::TorusShape& shape : shapes) {
      SweepCase c;
      c.shape = shape;
      c.method = method;
      c.seed = 1 + rng.below(1000);
      c.cutoff = rng.uniform(1.8, 2.5);
      c.migrationInterval = migration[rng.below(3)];
      out.push_back(c);
    }
  }
  return out;
}

class MdPropertySweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MdPropertySweep, MatchesReferenceVerifiesAndRespectsTheBound) {
  const SweepCase& c = GetParam();
  SyntheticSystemParams sp;
  sp.targetAtoms = 1536;
  sp.temperature = 0.8;
  sp.seed = c.seed;
  const MDSystem sys = buildSyntheticSystem(sp);

  AntonMdConfig cfg;
  cfg.importMethod = c.method;
  cfg.force.cutoff = c.cutoff;
  cfg.ewald.grid = 16;
  cfg.homeBoxMarginFrac = 0.10;
  cfg.migrationInterval = c.migrationInterval;
  cfg.longRangeInterval = 2;
  cfg.thermostatInterval = 2;
  cfg.thermostatTau = 0.05;

  // Client memory sized for the largest FFT block of the sweep (a 16^3 grid
  // on 4 nodes).
  sim::Simulator sim;
  net::MachineConfig mc;
  mc.clientMemBytes = 1 << 20;
  net::Machine machine(sim, c.shape, mc);
  AntonMdApp app(machine, sys, cfg);

  // Static side: the plan of the template superstep.
  const verify::CommPlan plan = app.extractCommPlan();
  const verify::VerifyResult vr = verify::verifyPlan(plan);
  EXPECT_TRUE(vr.ok()) << (vr.violations.empty() ? ""
                                                 : vr.violations[0].detail);
  for (const verify::MulticastPlanEntry& m : plan.multicasts)
    EXPECT_LT(m.patternId, net::kMulticastPatterns);
  const verify::TimingReport bound = verify::analyzeTiming(plan);
  ASSERT_TRUE(bound.ok());

  // Live side: 4 steps reach a step running every phase for intervals 1, 2
  // and 4.
  EngineParams ep;
  ep.force = cfg.force;
  ep.ewald = cfg.ewald;
  ep.dt = cfg.dt;
  ep.longRange = true;
  ep.longRangeInterval = cfg.longRangeInterval;
  ep.thermostatTau = cfg.thermostatTau;
  ep.targetTemperature = cfg.targetTemperature;
  ep.thermostatInterval = cfg.thermostatInterval;
  ReferenceEngine ref(sys, ep);
  const int steps = 4;
  app.runSteps(steps);
  ref.run(steps);

  const MDSystem got = app.gatherSystem();
  const MDSystem& want = ref.system();
  double maxErr = 0.0;
  for (std::size_t i = 0; i < got.positions.size(); ++i)
    maxErr = std::max(
        maxErr, want.minImage(got.positions[i], want.positions[i]).norm());
  // Fixed-point accumulation (2^-20 per partial force) keeps the two within
  // ~1e-10 over these steps; a single missed or doubled pair, or a lost
  // force across migration, moves atoms by 1e-4 or more.
  EXPECT_LT(maxErr, 1e-7) << "distributed trajectory diverged";

  int worstSteps = 0;
  for (const StepTiming& st : app.stepTimings()) {
    if (!(st.longRange && st.thermostat && st.migration)) continue;
    ++worstSteps;
    EXPECT_GE(st.totalUs * 1000.0, bound.perRoundNs)
        << "step " << st.stepNumber << " beat its static bound";
  }
  EXPECT_GT(worstSteps, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, MdPropertySweep, ::testing::ValuesIn(sweepCases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      const SweepCase& c = info.param;
      return std::string(c.method == ImportMethod::kHalfShell ? "HalfShell"
                                                              : "Nt") +
             "_" + std::to_string(c.shape.nx) + "x" +
             std::to_string(c.shape.ny) + "x" + std::to_string(c.shape.nz);
    });

}  // namespace
}  // namespace anton::md
