// The Anton-mapped MD application against the host reference engine: the
// same trajectory must emerge from packets flowing through the simulated
// machine (within fixed-point accumulation tolerance), communication
// patterns must stay fixed, migration must conserve atoms, and the step
// timings must land in the paper's regime.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "md/anton_app.hpp"

namespace anton::md {
namespace {

MDSystem testSystem(int atoms = 1536, std::uint64_t seed = 7) {
  SyntheticSystemParams p;
  p.targetAtoms = atoms;
  p.temperature = 0.8;
  p.seed = seed;
  return buildSyntheticSystem(p);
}

AntonMdConfig testConfig() {
  AntonMdConfig cfg;
  cfg.force.cutoff = 2.2;
  cfg.ewald.grid = 16;
  cfg.dt = 0.002;
  cfg.homeBoxMarginFrac = 0.10;
  cfg.migrationInterval = 4;
  cfg.longRangeInterval = 2;
  cfg.thermostatTau = 0.0;
  return cfg;
}

EngineParams matchingEngineParams(const AntonMdConfig& cfg) {
  EngineParams p;
  p.force = cfg.force;
  p.ewald = cfg.ewald;
  p.dt = cfg.dt;
  p.longRange = true;
  p.longRangeInterval = cfg.longRangeInterval;
  p.thermostatTau = cfg.thermostatTau;
  p.targetTemperature = cfg.targetTemperature;
  p.thermostatInterval = cfg.thermostatInterval;
  return p;
}

struct Fixture {
  sim::Simulator sim;
  net::Machine machine;
  explicit Fixture(util::TorusShape shape = {4, 4, 4})
      : machine(sim, shape, {}) {}
};

TEST(AntonMd, TrajectoryMatchesReferenceEngine) {
  MDSystem sys = testSystem();
  AntonMdConfig cfg = testConfig();
  Fixture f;
  AntonMdApp app(f.machine, sys, cfg);
  ReferenceEngine ref(sys, matchingEngineParams(cfg));

  const int steps = 5;
  app.runSteps(steps);
  ref.run(steps);

  MDSystem got = app.gatherSystem();
  const MDSystem& expect = ref.system();
  ASSERT_EQ(got.numAtoms(), expect.numAtoms());
  double maxErr = 0.0;
  for (int i = 0; i < got.numAtoms(); ++i) {
    Vec3 d = expect.minImage(got.positions[std::size_t(i)],
                             expect.positions[std::size_t(i)]);
    maxErr = std::max(maxErr, d.norm());
  }
  // Fixed-point force accumulation (2^-20) is the only divergence source.
  EXPECT_LT(maxErr, 2e-3) << "distributed trajectory diverged";
}

TEST(AntonMd, DeterministicAcrossRuns) {
  MDSystem sys = testSystem();
  AntonMdConfig cfg = testConfig();
  Fixture a, b;
  AntonMdApp appA(a.machine, sys, cfg);
  AntonMdApp appB(b.machine, sys, cfg);
  appA.runSteps(4);
  appB.runSteps(4);
  MDSystem sa = appA.gatherSystem();
  MDSystem sb = appB.gatherSystem();
  for (int i = 0; i < sa.numAtoms(); ++i) {
    EXPECT_EQ(sa.positions[std::size_t(i)], sb.positions[std::size_t(i)]);
    EXPECT_EQ(sa.velocities[std::size_t(i)], sb.velocities[std::size_t(i)]);
  }
}

TEST(AntonMd, FixedCommunicationPatterns) {
  // Counted remote writes require fixed per-step packet counts: two
  // range-limited steps without migration must inject identical traffic.
  MDSystem sys = testSystem();
  AntonMdConfig cfg = testConfig();
  cfg.migrationInterval = 100;
  cfg.longRangeInterval = 100;  // keep every step range-limited
  Fixture f;
  AntonMdApp app(f.machine, sys, cfg);

  app.runSteps(1);
  std::uint64_t after1 = f.machine.stats().packetsInjected;
  app.runSteps(1);
  std::uint64_t after2 = f.machine.stats().packetsInjected;
  app.runSteps(1);
  std::uint64_t after3 = f.machine.stats().packetsInjected;
  EXPECT_EQ(after2 - after1, after3 - after2);
  EXPECT_GT(after2 - after1, 0u);
}

// Distinct (atom, compute node) pairs of the bond program: each term runs on
// the node owning its anchor atom (bonds: i; angles and dihedrals: j), which
// receives one position and returns one force per distinct atom.
std::uint64_t bondProgramPairs(const MDSystem& sys,
                               const util::TorusShape& shape) {
  auto owner = [&](int gid) {
    const Vec3 p = sys.wrap(sys.positions[std::size_t(gid)]);
    return util::torusIndex(
        {std::min(shape.nx - 1, int(p.x / (sys.box.x / shape.nx))),
         std::min(shape.ny - 1, int(p.y / (sys.box.y / shape.ny))),
         std::min(shape.nz - 1, int(p.z / (sys.box.z / shape.nz)))},
        shape);
  };
  std::set<std::pair<int, int>> pairs;
  auto add = [&](int anchor, std::initializer_list<int> atoms) {
    const int node = owner(anchor);
    for (int a : atoms) pairs.insert({a, node});
  };
  for (const Bond& b : sys.bonds) add(b.i, {b.i, b.j});
  for (const Angle& a : sys.angles) add(a.j, {a.i, a.j, a.k});
  for (const Dihedral& d : sys.dihedrals) add(d.j, {d.i, d.j, d.k, d.l});
  return pairs.size();
}

TEST(AntonMd, HtisPacketsAreExactPerAtom) {
  // A range-limited step sends one position packet per home atom and one
  // HTIS force return per imported atom, with no padding: the injected
  // packets and multicast forks equal their closed forms.
  MDSystem sys = testSystem();
  AntonMdConfig cfg = testConfig();
  cfg.migrationInterval = 100;
  cfg.longRangeInterval = 100;
  Fixture f;
  AntonMdApp app(f.machine, sys, cfg);
  const ImportRegions regions(f.machine.shape(), cfg.importMethod);

  std::uint64_t positions = 0, returns = 0, forks = 0;
  for (int node = 0; node < f.machine.numNodes(); ++node) {
    const std::uint64_t atoms = std::uint64_t(app.homeAtoms(node));
    positions += atoms;
    forks += atoms * regions.exportTo(node).size();
    for (int src : regions.sources(node))
      returns += std::uint64_t(app.homeAtoms(src));
  }
  const std::uint64_t bonded = 2 * bondProgramPairs(sys, f.machine.shape());

  app.runSteps(1);
  EXPECT_EQ(f.machine.stats().packetsInjected, positions + returns + bonded);
  EXPECT_EQ(f.machine.stats().multicastForks, forks);
}

double maxDeviation(const MDSystem& got, const MDSystem& expect) {
  double maxErr = 0.0;
  for (int i = 0; i < got.numAtoms(); ++i)
    maxErr = std::max(maxErr, expect.minImage(got.positions[std::size_t(i)],
                                              expect.positions[std::size_t(i)])
                                  .norm());
  return maxErr;
}

TEST(AntonMd, CountsFollowMigration) {
  // Exact home boxes and a long time step make atoms migrate every step,
  // so the HTIS count tables change under the run: each import must track
  // the multicast counts, and the trajectory still matches the reference.
  MDSystem sys = testSystem();
  AntonMdConfig cfg = testConfig();
  cfg.homeBoxMarginFrac = 0.0;
  cfg.dt = 0.005;
  cfg.migrationInterval = 1;
  const int steps = 6;
  {
    Fixture f;
    AntonMdApp app(f.machine, sys, cfg);
    std::vector<int> before;
    for (int n = 0; n < f.machine.numNodes(); ++n)
      before.push_back(app.homeAtoms(n));
    app.runSteps(steps);
    int changed = 0;
    for (int n = 0; n < f.machine.numNodes(); ++n)
      changed += app.homeAtoms(n) != before[std::size_t(n)] ? 1 : 0;
    EXPECT_GT(app.totalMigrated(), 0u);
    EXPECT_GT(changed, 0) << "no population changed";

    ReferenceEngine ref(sys, matchingEngineParams(cfg));
    ref.run(steps);
    EXPECT_LT(maxDeviation(app.gatherSystem(), ref.system()), 2e-3);
  }
  {
    // Capacity still bounds what migration may bring in, loudly.
    cfg.packetHeadroom = 1.0;
    Fixture f;
    AntonMdApp app(f.machine, sys, cfg);
    try {
      app.runSteps(steps);
      ADD_FAILURE() << "no home box overflowed its receive capacity";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("home box overflow"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(AntonMd, PlanEqualsTraffic) {
  // The extracted plan describes the packets the live step really sends:
  // with migration, long-range work and the thermostat on every step, one
  // step's per-source arrivals on every MD (client, counter) equal the summed
  // per-source expectations of the plan's md.* wait sites there. Atoms
  // migrate every step, so each plan must follow the new populations.
  for (ImportMethod method :
       {ImportMethod::kNeutralTerritory, ImportMethod::kHalfShell}) {
    SCOPED_TRACE(method == ImportMethod::kHalfShell ? "half shell" : "NT");
    MDSystem sys = testSystem();
    AntonMdConfig cfg = testConfig();
    cfg.importMethod = method;
    cfg.homeBoxMarginFrac = 0.0;
    cfg.dt = 0.005;
    cfg.migrationInterval = 1;
    cfg.longRangeInterval = 1;
    cfg.thermostatInterval = 1;
    cfg.thermostatTau = 0.05;
    Fixture f;
    AntonMdApp app(f.machine, sys, cfg);
    using Key = std::tuple<int, int, int>;  // node, client, counter
    for (int step = 0; step < 3; ++step) {
      SCOPED_TRACE("step " + std::to_string(step + 1));
      std::map<Key, std::map<int, std::uint64_t>> want, before;
      const verify::CommPlan plan = app.extractCommPlan();
      for (const verify::CounterExpectation& e : plan.expectations) {
        if (plan.nameOf(e.site).rfind("md.", 0) != 0) continue;
        auto& w = want[{e.client.node, e.client.client, e.counterId}];
        for (const auto& [src, packets] : plan.bySource(e))
          if (packets > 0) w[src] += packets;
      }
      auto sources = [&](const Key& k) {
        const auto [node, client, counter] = k;
        return f.machine.client({node, client}).counterSources(counter);
      };
      for (const auto& [k, w] : want) before[k] = sources(k);
      app.runSteps(1);
      for (const auto& [k, w] : want) {
        std::map<int, std::uint64_t> delta;
        for (const auto& [src, total] : sources(k))
          if (total > before[k][src]) delta[src] = total - before[k][src];
        const auto [node, client, counter] = k;
        EXPECT_EQ(delta, w) << "node " << node << " client " << client
                            << " counter " << counter;
      }
    }
    EXPECT_GT(app.totalMigrated(), 0u);
  }
}

TEST(AntonMd, SyntheticDiffusionOverflowChangesNothing) {
  // A diffusion that overflows some box's receive capacity throws before any
  // home box changes: the system and every population are as before, and
  // the app still steps.
  MDSystem sys = testSystem(3000);
  AntonMdConfig cfg = testConfig();
  cfg.packetHeadroom = 1.0;
  Fixture f;
  AntonMdApp app(f.machine, sys, cfg);
  const MDSystem before = app.gatherSystem();
  std::vector<int> homes;
  for (int n = 0; n < f.machine.numNodes(); ++n)
    homes.push_back(app.homeAtoms(n));

  EXPECT_THROW(app.syntheticDiffusion(1.0, 3), std::runtime_error);
  const MDSystem after = app.gatherSystem();
  EXPECT_TRUE(after.positions == before.positions);
  EXPECT_TRUE(after.velocities == before.velocities);
  for (int n = 0; n < f.machine.numNodes(); ++n)
    EXPECT_EQ(app.homeAtoms(n), homes[std::size_t(n)]) << "node " << n;
  app.runSteps(1);
}

TEST(AntonMd, MigrationConservesAtomsAndKeepsRunning) {
  MDSystem sys = testSystem(1536, 11);
  AntonMdConfig cfg = testConfig();
  cfg.migrationInterval = 2;
  Fixture f;
  AntonMdApp app(f.machine, sys, cfg);
  app.runSteps(8);

  int total = 0;
  for (int n = 0; n < f.machine.numNodes(); ++n) total += app.homeAtoms(n);
  EXPECT_EQ(total, sys.numAtoms());

  MDSystem got = app.gatherSystem();
  std::set<double> uniquePositions;
  for (const auto& p : got.positions) uniquePositions.insert(p.x);
  EXPECT_GT(uniquePositions.size(), 1000u);  // real, distinct state
}

TEST(AntonMd, ThermostatControlsTemperature) {
  MDSystem sys = testSystem(1536, 13);
  AntonMdConfig cfg = testConfig();
  cfg.thermostatTau = 0.01;
  cfg.targetTemperature = 1.2;
  cfg.thermostatInterval = 2;
  Fixture f;
  AntonMdApp app(f.machine, sys, cfg);
  double t0 = app.gatherSystem().temperature();
  app.runSteps(12);
  double t1 = app.gatherSystem().temperature();
  EXPECT_GT(t1, t0);  // heated toward 1.2 from 0.8
  // And it matches the reference engine's thermostat trajectory closely.
  ReferenceEngine ref(sys, matchingEngineParams(cfg));
  ref.run(12);
  EXPECT_NEAR(t1, ref.system().temperature(), 0.05);
}

TEST(AntonMd, StepTimingsLandInPaperRegime) {
  // A range-limited step on the model should cost single-digit
  // microseconds and a long-range step more (Table 3: 9.0 vs 22.2 us for
  // the 512-node DHFR run; the test machine is smaller but same order).
  MDSystem sys = testSystem();
  AntonMdConfig cfg = testConfig();
  cfg.thermostatTau = 0.05;
  Fixture f;
  AntonMdApp app(f.machine, sys, cfg);
  app.runSteps(4);

  double rl = 0, lr = 0;
  for (const StepTiming& t : app.stepTimings()) {
    if (t.longRange) {
      lr = std::max(lr, t.totalUs);
    } else if (!t.migration) {
      rl = std::max(rl, t.totalUs);
    }
  }
  EXPECT_GT(rl, 1.0);
  EXPECT_LT(rl, 60.0);
  EXPECT_GT(lr, rl);  // long-range steps cost more
  EXPECT_LT(lr, 200.0);
}

TEST(AntonMd, BondProgramRegenerationIsSafe) {
  MDSystem sys = testSystem(1536, 17);
  AntonMdConfig cfg = testConfig();
  Fixture f;
  AntonMdApp app(f.machine, sys, cfg);
  app.runSteps(4);
  double hopsBefore = app.averageBondHops();
  app.regenerateBondProgram();
  double hopsAfter = app.averageBondHops();
  EXPECT_LE(hopsAfter, hopsBefore + 1e-9);
  app.runSteps(4);  // still runs to completion with the new program
  int total = 0;
  for (int n = 0; n < f.machine.numNodes(); ++n) total += app.homeAtoms(n);
  EXPECT_EQ(total, sys.numAtoms());
}

TEST(AntonMd, RejectsUnsafeConfigurations) {
  MDSystem sys = testSystem();
  {
    Fixture f;
    AntonMdConfig cfg = testConfig();
    cfg.force.cutoff = 10.0;  // cutoff wider than a home box
    EXPECT_THROW(AntonMdApp(f.machine, sys, cfg), std::invalid_argument);
  }
  {
    Fixture f({2, 4, 4});  // extent 2 aliases the import rule's neighbors
    EXPECT_THROW(AntonMdApp(f.machine, sys, testConfig()), std::invalid_argument);
  }
  {
    Fixture f;
    AntonMdConfig cfg = testConfig();
    cfg.ewald.grid = 8;  // FFT blocks of 2 < spline halo width
    EXPECT_THROW(AntonMdApp(f.machine, sys, cfg), std::invalid_argument);
  }
}

// --- import rule -------------------------------------------------------------

bool imports(const ImportRegions& r, int node, int box) {
  const std::vector<int>& src = r.sources(node);
  return std::find(src.begin(), src.end(), box) != src.end();
}

TEST(ImportRegions, EveryPairIsComputedOnceByANodeImportingBoth) {
  const util::TorusShape shapes[] = {{3, 3, 3}, {4, 4, 4}, {8, 8, 8},
                                     {4, 4, 1}, {1, 4, 4}, {4, 1, 4},
                                     {1, 1, 4}, {3, 4, 5}};
  for (ImportMethod method :
       {ImportMethod::kNeutralTerritory, ImportMethod::kHalfShell}) {
    for (const util::TorusShape& shape : shapes) {
      SCOPED_TRACE(shape.str() + (method == ImportMethod::kHalfShell
                                      ? " half shell"
                                      : " neutral territory"));
      const ImportRegions r(shape, method);
      // Box pair -> the nodes holding it in their pair lists.
      std::map<std::pair<int, int>, std::vector<std::pair<int, bool>>> holders;
      for (int node = 0; node < shape.size(); ++node) {
        const std::vector<int>& src = r.sources(node);
        ASSERT_EQ(src.front(), node);
        for (const ImportRegions::BoxPair& bp : r.pairs(node)) {
          ASSERT_LE(bp.s1, bp.s2);
          if (bp.byGid) {
            ASSERT_EQ(bp.s1, 0) << "a gid split must involve home";
          }
          const int a = src[std::size_t(bp.s1)], b = src[std::size_t(bp.s2)];
          holders[{std::min(a, b), std::max(a, b)}].push_back(
              {node, bp.byGid});
        }
        for (int s : r.importFrom(node)) {
          const std::vector<int>& ex = r.exportTo(s);
          EXPECT_NE(std::find(ex.begin(), ex.end(), node), ex.end());
        }
      }
      // Every box against every box within one hop per dimension (itself
      // included), with both gid orders: exactly one node computes the
      // atom pair, it imports both boxes, and the rule is symmetric.
      for (int a = 0; a < shape.size(); ++a) {
        const util::TorusCoord c = util::torusCoordOf(a, shape);
        std::set<int> near;
        for (int dx = -1; dx <= 1; ++dx)
          for (int dy = -1; dy <= 1; ++dy)
            for (int dz = -1; dz <= 1; ++dz)
              near.insert(util::torusIndex({util::wrap(c.x + dx, shape.nx),
                                            util::wrap(c.y + dy, shape.ny),
                                            util::wrap(c.z + dz, shape.nz)},
                                           shape));
        for (int b : near) {
          for (auto [gidA, gidB] : {std::pair{1, 2}, std::pair{2, 1}}) {
            int count = 0, computedOn = -1;
            for (auto [node, byGid] :
                 holders[{std::min(a, b), std::max(a, b)}]) {
              const int homeGid = node == a ? gidA : gidB;
              if (!byGid || homeGid == std::max(gidA, gidB)) {
                ++count;
                computedOn = node;
              }
            }
            ASSERT_EQ(count, 1) << "boxes " << a << ", " << b;
            EXPECT_EQ(r.computeNode(a, gidA, b, gidB), computedOn);
            EXPECT_EQ(r.computeNode(b, gidB, a, gidA), computedOn);
            EXPECT_TRUE(imports(r, computedOn, a));
            EXPECT_TRUE(imports(r, computedOn, b));
          }
        }
      }
    }
  }
}

TEST(ImportRegions, NeutralTerritoryHalvesTheFanOut) {
  // On a full 3D torus NT imports the tower (2) and the half plate (4);
  // half shell imports 13 neighbors. Both export to as many as they import.
  const ImportRegions nt({8, 8, 8}, ImportMethod::kNeutralTerritory);
  const ImportRegions hs({8, 8, 8}, ImportMethod::kHalfShell);
  for (int node = 0; node < 512; ++node) {
    EXPECT_EQ(nt.importFrom(node).size(), 6u);
    EXPECT_EQ(nt.exportTo(node).size(), 6u);
    EXPECT_EQ(hs.importFrom(node).size(), 13u);
    EXPECT_EQ(hs.exportTo(node).size(), 13u);
  }
  const util::TorusShape shape{8, 8, 8};
  const int n = util::torusIndex({3, 3, 3}, shape);
  // Tower (z ± 1), then the half plate (1,0), (1,1), (0,1), (-1,1).
  const util::TorusCoord region[] = {{3, 3, 2}, {3, 3, 4}, {4, 3, 3},
                                     {4, 4, 3}, {3, 4, 3}, {2, 4, 3}};
  std::vector<int> want;
  for (const util::TorusCoord& t : region)
    want.push_back(util::torusIndex(t, shape));
  std::sort(want.begin(), want.end());
  const std::span<const int> got = nt.importFrom(n);
  EXPECT_EQ(std::vector<int>(got.begin(), got.end()), want);
}

TEST(ImportRegions, ExtentTwoIsRejected) {
  for (ImportMethod method :
       {ImportMethod::kNeutralTerritory, ImportMethod::kHalfShell}) {
    EXPECT_THROW(ImportRegions({2, 4, 4}, method), std::invalid_argument);
    EXPECT_THROW(ImportRegions({4, 4, 2}, method), std::invalid_argument);
  }
}

}  // namespace
}  // namespace anton::md
