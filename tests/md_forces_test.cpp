// Force-field validation: every kernel against numerical gradients, Newton's
// third law, cell-list vs. brute-force equivalence, and mesh Ewald against
// the direct k-space reference.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "md/ewald.hpp"
#include "md/forces.hpp"
#include "sim/rng.hpp"

namespace anton::md {
namespace {

MDSystem smallSystem(int atoms, double side, std::uint64_t seed) {
  MDSystem sys;
  sys.box = {side, side, side};
  sim::Rng rng(seed);
  for (int i = 0; i < atoms; ++i) {
    sys.positions.push_back(
        {rng.uniform(0, side), rng.uniform(0, side), rng.uniform(0, side)});
    sys.velocities.push_back({0, 0, 0});
    sys.charges.push_back(i % 2 == 0 ? 0.5 : -0.5);
    sys.masses.push_back(1.0);
  }
  return sys;
}

// Numerical gradient of an energy functional wrt every coordinate, compared
// against the kernel's analytic forces (F = -dU/dx).
template <typename EnergyFn>
void checkForcesAgainstGradient(MDSystem& sys, EnergyFn energy,
                                const std::vector<Vec3>& forces, double h,
                                double tol) {
  for (int i = 0; i < sys.numAtoms(); ++i) {
    for (int d = 0; d < 3; ++d) {
      auto coord = [&](Vec3& v) -> double& {
        return d == 0 ? v.x : d == 1 ? v.y : v.z;
      };
      double orig = coord(sys.positions[std::size_t(i)]);
      coord(sys.positions[std::size_t(i)]) = orig + h;
      double ep = energy();
      coord(sys.positions[std::size_t(i)]) = orig - h;
      double em = energy();
      coord(sys.positions[std::size_t(i)]) = orig;
      double numeric = -(ep - em) / (2 * h);
      double analytic = d == 0   ? forces[std::size_t(i)].x
                        : d == 1 ? forces[std::size_t(i)].y
                                 : forces[std::size_t(i)].z;
      EXPECT_NEAR(analytic, numeric, tol) << "atom " << i << " dim " << d;
    }
  }
}

TEST(MinImage, RoundHalfAwayIsStdRoundBitForBit) {
  // minImage's rounding skips the library call for |q| < 1.5; every value
  // must still equal std::round's, signed zeros and ties included.
  std::vector<double> qs = {0.0, 0.5, 1.5, 2.5, 0.25, 1.0, 7.5, 1e300,
                            std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
  for (double edge : {0.5, 1.5}) {
    qs.push_back(std::nextafter(edge, 0.0));
    qs.push_back(std::nextafter(edge, 2.0));
  }
  sim::Rng rng(5);
  for (int i = 0; i < 1000; ++i) qs.push_back(rng.uniform(-2.0, 2.0));
  for (double q : qs)
    for (double v : {q, -q})
      EXPECT_EQ(std::bit_cast<std::uint64_t>(roundHalfAway(v)),
                std::bit_cast<std::uint64_t>(std::round(v)))
          << v;
}

TEST(Bonded, BondForceMatchesGradient) {
  MDSystem sys = smallSystem(2, 10.0, 1);
  sys.positions[0] = {1.0, 1.0, 1.0};
  sys.positions[1] = {2.3, 1.4, 0.8};
  Bond b{0, 1, 1.2, 7.0};
  std::vector<Vec3> f(2);
  bondForce(sys, b, f);
  checkForcesAgainstGradient(
      sys,
      [&] {
        std::vector<Vec3> tmp(2);
        return bondForce(sys, b, tmp);
      },
      f, 1e-6, 1e-5);
  EXPECT_NEAR((f[0] + f[1]).norm(), 0.0, 1e-12);  // Newton's third law
}

TEST(Bonded, BondAcrossPeriodicBoundary) {
  MDSystem sys = smallSystem(2, 10.0, 1);
  sys.positions[0] = {0.2, 5.0, 5.0};
  sys.positions[1] = {9.7, 5.0, 5.0};  // 0.5 apart through the boundary
  Bond b{0, 1, 0.5, 10.0};
  std::vector<Vec3> f(2);
  double e = bondForce(sys, b, f);
  EXPECT_NEAR(e, 0.0, 1e-12);
  EXPECT_NEAR(f[0].norm(), 0.0, 1e-9);
}

TEST(Bonded, AngleForceMatchesGradient) {
  MDSystem sys = smallSystem(3, 10.0, 2);
  sys.positions[0] = {1.0, 1.0, 1.0};
  sys.positions[1] = {2.0, 1.2, 0.9};
  sys.positions[2] = {2.7, 2.1, 1.5};
  Angle a{0, 1, 2, 1.8, 4.0};
  std::vector<Vec3> f(3);
  angleForce(sys, a, f);
  checkForcesAgainstGradient(
      sys,
      [&] {
        std::vector<Vec3> tmp(3);
        return angleForce(sys, a, tmp);
      },
      f, 1e-6, 1e-5);
  EXPECT_NEAR((f[0] + f[1] + f[2]).norm(), 0.0, 1e-10);
}

TEST(Bonded, DihedralForceMatchesGradient) {
  MDSystem sys = smallSystem(4, 10.0, 3);
  sys.positions[0] = {1.0, 1.0, 1.0};
  sys.positions[1] = {2.0, 1.1, 1.0};
  sys.positions[2] = {2.5, 2.0, 1.4};
  sys.positions[3] = {3.4, 2.2, 2.2};
  Dihedral d{0, 1, 2, 3, 0.8, 3, 0.4};
  std::vector<Vec3> f(4);
  dihedralForce(sys, d, f);
  checkForcesAgainstGradient(
      sys,
      [&] {
        std::vector<Vec3> tmp(4);
        return dihedralForce(sys, d, tmp);
      },
      f, 1e-6, 1e-5);
  EXPECT_NEAR((f[0] + f[1] + f[2] + f[3]).norm(), 0.0, 1e-10);
}

class DihedralMultiplicity : public ::testing::TestWithParam<int> {};

TEST_P(DihedralMultiplicity, GradientHoldsForAllN) {
  MDSystem sys = smallSystem(4, 10.0, 4);
  sys.positions[0] = {0.5, 0.7, 0.2};
  sys.positions[1] = {1.5, 0.8, 0.4};
  sys.positions[2] = {2.0, 1.8, 0.7};
  sys.positions[3] = {3.0, 2.0, 1.6};
  Dihedral d{0, 1, 2, 3, 0.6, GetParam(), 0.9};
  std::vector<Vec3> f(4);
  dihedralForce(sys, d, f);
  checkForcesAgainstGradient(
      sys,
      [&] {
        std::vector<Vec3> tmp(4);
        return dihedralForce(sys, d, tmp);
      },
      f, 1e-6, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(N1to4, DihedralMultiplicity, ::testing::Values(1, 2, 3, 4));

TEST(RangeLimited, PairForceMatchesGradient) {
  ForceParams p;
  Vec3 d{0.9, 0.5, -0.3};
  double qi = 0.4, qj = -0.7;
  PairForce pf = rangeLimitedPair(d, qi, qj, p);
  double h = 1e-6;
  for (int dim = 0; dim < 3; ++dim) {
    Vec3 dp = d, dm = d;
    (dim == 0 ? dp.x : dim == 1 ? dp.y : dp.z) += h;
    (dim == 0 ? dm.x : dim == 1 ? dm.y : dm.z) -= h;
    // d = rj - ri: the gradient wrt ri is the negative of the gradient wrt d.
    double numeric = (rangeLimitedPair(dp, qi, qj, p).energy -
                      rangeLimitedPair(dm, qi, qj, p).energy) /
                     (2 * h);
    double analytic = dim == 0 ? pf.onI.x : dim == 1 ? pf.onI.y : pf.onI.z;
    EXPECT_NEAR(analytic, numeric, 1e-5) << "dim " << dim;
  }
}

TEST(RangeLimited, ZeroBeyondCutoff) {
  ForceParams p;
  PairForce pf = rangeLimitedPair({2.6, 0, 0}, 1.0, 1.0, p);
  EXPECT_EQ(pf.energy, 0.0);
  EXPECT_EQ(pf.onI.norm(), 0.0);
}

TEST(RangeLimited, ShiftedLJVanishesAtCutoff) {
  ForceParams p;
  PairForce pf = rangeLimitedPair({p.cutoff - 1e-9, 0, 0}, 0.0, 0.0, p);
  EXPECT_NEAR(pf.energy, 0.0, 1e-7);
}

TEST(CellList, MatchesBruteForcePairs) {
  // Box wide enough for cells (>= 3 per dim) vs. explicit O(N^2).
  MDSystem sys = smallSystem(200, 9.0, 7);
  ForceParams p;
  std::vector<Vec3> fCell(200), fBrute(200);
  double eCell = rangeLimitedForces(sys, p, fCell);

  double eBrute = 0.0;
  for (int i = 0; i < 200; ++i)
    for (int j = i + 1; j < 200; ++j) {
      Vec3 d = sys.minImage(sys.positions[std::size_t(i)],
                            sys.positions[std::size_t(j)]);
      PairForce pf = rangeLimitedPair(d, sys.charges[std::size_t(i)],
                                      sys.charges[std::size_t(j)], p);
      fBrute[std::size_t(i)] += pf.onI;
      fBrute[std::size_t(j)] -= pf.onI;
      eBrute += pf.energy;
    }
  // Random placement creates overlapping pairs with enormous LJ forces, so
  // compare with a relative tolerance (summation order differs).
  EXPECT_NEAR(eCell, eBrute, 1e-12 * std::abs(eBrute) + 1e-9);
  for (int i = 0; i < 200; ++i) {
    double scale = std::max(1.0, fBrute[std::size_t(i)].norm());
    EXPECT_NEAR((fCell[std::size_t(i)] - fBrute[std::size_t(i)]).norm() / scale,
                0.0, 1e-12);
  }
}

TEST(CellList, SmallBoxFallsBackToBruteForce) {
  MDSystem sys = smallSystem(40, 4.0, 8);  // < 3 cells per dim at cutoff 2.5
  ForceParams p;
  std::vector<Vec3> f(40);
  double e = rangeLimitedForces(sys, p, f);
  EXPECT_TRUE(std::isfinite(e));
  Vec3 net;
  for (const auto& v : f) net += v;
  EXPECT_NEAR(net.norm(), 0.0, 1e-7);
}

TEST(Spline, PartitionOfUnity) {
  for (double u : {0.0, 0.25, 3.7, 11.99, 31.5}) {
    SplineStencil s = splineStencil(u, 32);
    double sum = 0, dsum = 0;
    for (int j = 0; j < 4; ++j) {
      sum += s.w[std::size_t(j)];
      dsum += s.dw[std::size_t(j)];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12) << "u=" << u;
    EXPECT_NEAR(dsum, 0.0, 1e-12) << "u=" << u;
  }
}

TEST(Spline, DerivativeMatchesFiniteDifference) {
  for (double x : {0.3, 1.1, 1.9, 2.5, 3.8}) {
    double h = 1e-7;
    double numeric = (bspline4(x + h) - bspline4(x - h)) / (2 * h);
    EXPECT_NEAR(bspline4Derivative(x), numeric, 1e-6) << "x=" << x;
  }
}

TEST(Ewald, ChargeConservationOnGrid) {
  MDSystem sys = smallSystem(50, 8.0, 9);
  MeshEwald me(sys.box, {.grid = 16, .kappa = 1.0, .coulomb = 1.0});
  fft::Grid3D g = me.spreadCharges(sys);
  double total = 0, expect = 0;
  for (const auto& v : g.data()) total += v.real();
  for (double q : sys.charges) expect += q;
  EXPECT_NEAR(total, expect, 1e-10);
}

TEST(Ewald, MeshMatchesReferenceEnergyAndForces) {
  MDSystem sys = smallSystem(24, 6.0, 11);
  const double kappa = 0.9, coulomb = 1.0;
  std::vector<Vec3> fRef(24), fMesh(24);
  double eRef = ewaldReferenceEnergyAndForces(sys, kappa, coulomb, 12, fRef);
  MeshEwald me(sys.box, {.grid = 32, .kappa = kappa, .coulomb = coulomb});
  double eMesh = me.energyAndForces(sys, fMesh);
  EXPECT_NEAR(eMesh, eRef, 5e-3 * std::abs(eRef) + 1e-4);
  for (int i = 0; i < 24; ++i) {
    EXPECT_NEAR((fMesh[std::size_t(i)] - fRef[std::size_t(i)]).norm(), 0.0, 2e-3)
        << "atom " << i;
  }
}

TEST(Ewald, MeshForceMatchesNumericalGradient) {
  MDSystem sys = smallSystem(10, 5.0, 13);
  MeshEwald me(sys.box, {.grid = 32, .kappa = 1.0, .coulomb = 1.0});
  std::vector<Vec3> f(10);
  me.energyAndForces(sys, f);
  checkForcesAgainstGradient(
      sys,
      [&] {
        std::vector<Vec3> tmp(10);
        return me.energyAndForces(sys, tmp);
      },
      f, 1e-5, 2e-3);
}

TEST(Ewald, NetForceIsSmall) {
  // SPME-style interpolation does not conserve momentum exactly (a known
  // property); the residual must be far below typical per-atom forces.
  MDSystem sys = smallSystem(60, 7.0, 15);
  MeshEwald me(sys.box, {.grid = 32, .kappa = 1.0, .coulomb = 1.0});
  std::vector<Vec3> f(60);
  me.energyAndForces(sys, f);
  Vec3 net;
  double typical = 0.0;
  for (const auto& v : f) {
    net += v;
    typical += v.norm();
  }
  typical /= 60.0;
  EXPECT_LT(net.norm(), 1e-2 * std::max(typical, 1e-6));
}

TEST(System, SyntheticBuilderInvariants) {
  SyntheticSystemParams p;
  p.targetAtoms = 3000;
  MDSystem sys = buildSyntheticSystem(p);
  EXPECT_NEAR(double(sys.numAtoms()), 3000, 3);
  double q = 0;
  for (double c : sys.charges) q += c;
  EXPECT_NEAR(q, 0.0, 1e-9);                       // net neutral
  EXPECT_NEAR(sys.totalMomentum().norm(), 0.0, 1e-9);  // no drift
  EXPECT_NEAR(sys.temperature(), 1.0, 0.1);
  EXPECT_GT(sys.bonds.size(), 1500u);
  EXPECT_GT(sys.angles.size(), 900u);
  EXPECT_GT(sys.dihedrals.size(), 200u);
  for (const auto& pos : sys.positions) {
    EXPECT_GE(pos.x, 0.0);
    EXPECT_LT(pos.x, sys.box.x);
  }
}

}  // namespace
}  // namespace anton::md
