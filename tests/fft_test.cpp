// FFT correctness: 1D against the O(n^2) reference, 3D round trips, and the
// distributed transform bit-identical to the host reference.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <tuple>

#include "fft/distributed.hpp"
#include "fft/grid3d.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace anton::fft {
namespace {

using sim::Task;

std::vector<Complex> randomSignal(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& x : v) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return v;
}

class Fft1dSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1dSizes, MatchesReferenceDft) {
  auto a = randomSignal(GetParam(), GetParam() * 7 + 1);
  auto expect = dftReference(a, false);
  std::vector<Complex> got = a;
  fft1d(got, false);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(got[i].real(), expect[i].real(), 1e-9) << "bin " << i;
    EXPECT_NEAR(got[i].imag(), expect[i].imag(), 1e-9) << "bin " << i;
  }
}

TEST_P(Fft1dSizes, RoundTripIsIdentity) {
  auto a = randomSignal(GetParam(), GetParam() + 99);
  std::vector<Complex> got = a;
  fft1d(got, false);
  fft1d(got, true);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(got[i].real(), a[i].real(), 1e-12);
    EXPECT_NEAR(got[i].imag(), a[i].imag(), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, Fft1dSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256));

TEST(Fft1d, NonPowerOfTwoThrows) {
  std::vector<Complex> a(6);
  EXPECT_THROW(fft1d(a, false), std::invalid_argument);
}

TEST(Fft1d, DeltaTransformsToConstant) {
  std::vector<Complex> a(8, {0, 0});
  a[0] = {1, 0};
  fft1d(a, false);
  for (const auto& x : a) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft1d, ParsevalHolds) {
  auto a = randomSignal(64, 3);
  double timeE = 0;
  for (auto& x : a) timeE += std::norm(x);
  std::vector<Complex> f = a;
  fft1d(f, false);
  double freqE = 0;
  for (auto& x : f) freqE += std::norm(x);
  EXPECT_NEAR(freqE, timeE * 64.0, 1e-8);
}

TEST(Fft3d, RoundTrip) {
  Grid3D g(8, 4, 16);
  sim::Rng rng(5);
  for (auto& x : g.data()) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  Grid3D orig = g;
  fft3d(g, false);
  fft3d(g, true);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_NEAR(g.data()[i].real(), orig.data()[i].real(), 1e-11);
    EXPECT_NEAR(g.data()[i].imag(), orig.data()[i].imag(), 1e-11);
  }
}

TEST(Fft3d, PlaneWaveTransformsToDelta) {
  const int n = 8;
  Grid3D g(n, n, n);
  const int kx = 2, ky = 5, kz = 1;
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x) {
        double ph = 2.0 * std::numbers::pi * (kx * x + ky * y + kz * z) / n;
        g.at(x, y, z) = {std::cos(ph), std::sin(ph)};
      }
  fft3d(g, false);
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x) {
        double expect = (x == kx && y == ky && z == kz) ? double(n * n * n) : 0.0;
        EXPECT_NEAR(g.at(x, y, z).real(), expect, 1e-7);
        EXPECT_NEAR(g.at(x, y, z).imag(), 0.0, 1e-7);
      }
}

// --- distributed -----------------------------------------------------------

struct DistFixture {
  sim::Simulator sim;
  net::Machine machine;
  DistFixture(util::TorusShape shape) : machine(sim, shape, {}) {}
};

void runCollective(DistFixture& f, DistributedFft3D& fft, bool inverse) {
  auto task = [](DistributedFft3D& d, int n, bool inv) -> Task {
    co_await d.run(n, inv);
  };
  for (int n = 0; n < f.machine.numNodes(); ++n)
    f.sim.spawn(task(fft, n, inverse));
  f.sim.run();
}

class DistributedShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int, int, int>> {};

TEST_P(DistributedShapes, MatchesHostFft3dExactly) {
  auto [nx, ny, nz, gx, gy, gz, ppp] = GetParam();
  DistFixture f({nx, ny, nz});
  DistributedFftConfig cfg;
  cfg.pointsPerPacket = ppp;
  DistributedFft3D dist(f.machine, gx, gy, gz, cfg);

  Grid3D ref(gx, gy, gz);
  sim::Rng rng(17);
  for (auto& x : ref.data()) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  dist.loadGrid(ref.data());

  runCollective(f, dist, false);
  fft3d(ref, false);

  auto got = dist.extractGrid();
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Bit-identical: same per-line fft1d code, same pass order.
    EXPECT_EQ(got[i], ref.data()[i]) << "point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MachineAndGrid, DistributedShapes,
    ::testing::Values(std::tuple{2, 2, 2, 8, 8, 8, 1},
                      std::tuple{2, 2, 2, 8, 8, 8, 0},
                      std::tuple{4, 2, 2, 16, 8, 8, 4},
                      std::tuple{4, 4, 4, 16, 16, 16, 0},
                      std::tuple{1, 2, 4, 4, 8, 16, 2}));

TEST(Distributed, ForwardInverseRoundTrip) {
  DistFixture f({2, 2, 2});
  DistributedFft3D dist(f.machine, 8, 8, 8, {});
  std::vector<Complex> input(8 * 8 * 8);
  sim::Rng rng(23);
  for (auto& x : input) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  dist.loadGrid(input);
  runCollective(f, dist, false);
  runCollective(f, dist, true);
  auto got = dist.extractGrid();
  for (std::size_t i = 0; i < input.size(); ++i) {
    EXPECT_NEAR(got[i].real(), input[i].real(), 1e-12);
    EXPECT_NEAR(got[i].imag(), input[i].imag(), 1e-12);
  }
}

TEST(Distributed, RepeatedTransformsKeepWorking) {
  // Cumulative counters / parity buffers across 3 consecutive transforms.
  DistFixture f({2, 2, 1});
  DistributedFft3D dist(f.machine, 4, 4, 4, {});
  Grid3D ref(4, 4, 4);
  sim::Rng rng(31);
  for (int round = 0; round < 3; ++round) {
    for (auto& x : ref.data()) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    dist.loadGrid(ref.data());
    runCollective(f, dist, false);
    Grid3D expect = ref;
    fft3d(expect, false);
    auto got = dist.extractGrid();
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], expect.data()[i]) << "round " << round;
  }
}

TEST(Distributed, GlobalCoordRoundTrip) {
  DistFixture f({2, 4, 2});
  DistributedFft3D dist(f.machine, 8, 8, 8, {});
  std::vector<int> seen(8 * 8 * 8, 0);
  for (int n = 0; n < f.machine.numNodes(); ++n) {
    for (std::size_t i = 0; i < dist.blockSize(); ++i) {
      auto [x, y, z] = dist.globalCoord(n, i);
      ++seen[std::size_t(x + 8 * (y + 8 * z))];
    }
  }
  for (int v : seen) EXPECT_EQ(v, 1);  // exact partition of the grid
}

TEST(Distributed, FineGrainedUsesMorePacketsThanBatched) {
  DistFixture a({2, 2, 2});
  DistributedFftConfig fine;
  fine.pointsPerPacket = 1;
  DistributedFft3D f1(a.machine, 8, 8, 8, fine);
  DistFixture b({2, 2, 2});
  DistributedFftConfig batched;
  batched.pointsPerPacket = 0;
  DistributedFft3D f2(b.machine, 8, 8, 8, batched);
  EXPECT_GT(f1.packetsPerNodePerTransform(0), f2.packetsPerNodePerTransform(0));

  // And the stats agree with the plan.
  runCollective(a, f1, false);
  std::uint64_t expected = 0;
  for (int n = 0; n < 8; ++n) expected += f1.packetsPerNodePerTransform(n);
  EXPECT_EQ(a.machine.stats().packetsInjected, expected);
}

TEST(Distributed, PlanEqualsTraffic) {
  // The plan of one forward+inverse pair describes the packets the live
  // transforms really send: the per-source arrivals on every (node, client,
  // counter) equal the summed per-source expectations of the plan's waits
  // there. On the 4x2x2 torus with a 4x2x2 grid each x ring owns one line,
  // so three of its four positions own none.
  struct Shape {
    util::TorusShape torus;
    int gx, gy, gz, ppp;
  };
  for (const Shape& s : {Shape{{2, 2, 2}, 8, 8, 8, 1},
                         Shape{{4, 2, 2}, 4, 2, 2, 0},
                         Shape{{1, 2, 4}, 4, 8, 16, 2}}) {
    for (bool armed : {false, true}) {
      SCOPED_TRACE(std::to_string(s.torus.nx) + "x" +
                   std::to_string(s.torus.ny) + "x" +
                   std::to_string(s.torus.nz) +
                   (armed ? " armed" : " disarmed"));
      DistFixture f(s.torus);
      DistributedFftConfig cfg;
      cfg.pointsPerPacket = s.ppp;
      DistributedFft3D dist(f.machine, s.gx, s.gy, s.gz, cfg);
      core::DropRegistry reg(f.machine);
      core::RecoveryStats stats;
      if (armed) {
        core::RecoveryHooks hooks;
        hooks.registry = &reg;
        hooks.config.timeout = sim::us(100);
        hooks.stats = &stats;
        dist.setRecovery(hooks);
      }
      verify::CommPlan plan;
      dist.appendPlan(plan, "start");

      using Key = std::tuple<int, int, int>;  // node, client, counter
      std::map<Key, std::map<int, std::uint64_t>> want, before;
      for (const verify::CounterExpectation& e : plan.expectations) {
        EXPECT_EQ(e.recoveryArmed, armed) << plan.nameOf(e.site);
        auto& w = want[{e.client.node, e.client.client, e.counterId}];
        for (const auto& [src, packets] : plan.bySource(e))
          if (packets > 0) w[src] += packets;
      }
      auto sources = [&](const Key& k) {
        const auto [node, client, counter] = k;
        return f.machine.client({node, client}).counterSources(counter);
      };
      for (const auto& [k, w] : want) before[k] = sources(k);
      runCollective(f, dist, false);
      runCollective(f, dist, true);
      for (const auto& [k, w] : want) {
        std::map<int, std::uint64_t> delta;
        for (const auto& [src, total] : sources(k))
          if (total > before[k][src]) delta[src] = total - before[k][src];
        const auto [node, client, counter] = k;
        EXPECT_EQ(delta, w) << "node " << node << " client " << client
                            << " counter " << counter;
      }
      EXPECT_EQ(stats.timeouts, 0u);
    }
  }
}

TEST(Distributed, BadGridThrows) {
  DistFixture f({2, 2, 2});
  // Non-power-of-two extent.
  EXPECT_THROW(DistributedFft3D(f.machine, 6, 8, 8, {}), std::invalid_argument);
  // Grid extent smaller than the torus extent (not divisible).
  EXPECT_THROW(DistributedFft3D(f.machine, 4, 8, 1, {}), std::invalid_argument);
}

}  // namespace
}  // namespace anton::fft
