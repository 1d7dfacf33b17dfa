// Molecular system representation and synthetic workload construction.
//
// The paper benchmarks DHFR (23,558 atoms) and a 17,758-particle system —
// proprietary prepared systems we substitute with synthetic solvated-
// protein-like workloads: the same atom counts, solvent triads (two bonds +
// one angle, water-like charges), a protein-like chain with bonds, angles
// and dihedrals, uniform liquid density, and Maxwell-distributed velocities.
// Communication patterns depend only on these statistics (DESIGN.md §1).
//
// Units are reduced (LJ): sigma = epsilon = mass = 1, k_B = 1.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/vec3.hpp"

namespace anton::md {

using util::Vec3;

/// std::round(q), bit for bit, without the library call when |q| < 1.5,
/// which every separation of two wrapped positions satisfies.
inline double roundHalfAway(double q) {
  const double a = std::abs(q);
  if (a < 0.5) return std::copysign(0.0, q);
  if (a < 1.5) return std::copysign(1.0, q);
  return std::round(q);
}

struct Bond {
  int i, j;
  double r0;     ///< equilibrium length
  double k;      ///< stiffness: U = k (r - r0)^2
};

struct Angle {
  int i, j, k;   ///< j is the vertex
  double theta0; ///< equilibrium angle (radians)
  double kTheta; ///< U = kTheta (theta - theta0)^2
};

struct Dihedral {
  int i, j, k, l;
  double kPhi;   ///< U = kPhi (1 + cos(n phi - phi0))
  int n;
  double phi0;
};

struct MDSystem {
  Vec3 box;  ///< periodic box lengths
  std::vector<Vec3> positions;
  std::vector<Vec3> velocities;
  std::vector<double> charges;
  std::vector<double> masses;
  /// Per-atom Lennard-Jones strength; the pair prefactor is the product.
  /// Empty means 1.0 for every atom. Hydrogen-like solvent satellites carry
  /// 0 (as in common water models), which keeps the synthetic system stable.
  std::vector<double> ljStrength;
  std::vector<Bond> bonds;
  std::vector<Angle> angles;
  std::vector<Dihedral> dihedrals;

  int numAtoms() const { return int(positions.size()); }

  double ljOf(int i) const {
    return ljStrength.empty() ? 1.0 : ljStrength[std::size_t(i)];
  }

  /// Minimum-image displacement from a to b.
  Vec3 minImage(const Vec3& a, const Vec3& b) const {
    return {minImage1(b.x - a.x, box.x), minImage1(b.y - a.y, box.y),
            minImage1(b.z - a.z, box.z)};
  }
  /// One component of minImage: `d` less its nearest multiple of `period`.
  static double minImage1(double d, double period) {
    return d - period * roundHalfAway(d / period);
  }
  /// Wrap a position into [0, box) per dimension.
  Vec3 wrap(Vec3 p) const;

  /// Instantaneous kinetic energy and temperature (k_B = 1, 3N dof).
  double kineticEnergy() const;
  double temperature() const;
  /// Total momentum (should stay ~0 under NVE).
  Vec3 totalMomentum() const;
};

struct SyntheticSystemParams {
  int targetAtoms = 23558;
  double density = 0.8;       ///< atoms per sigma^3 (liquid-like)
  double temperature = 1.0;
  double proteinFraction = 0.10;  ///< fraction of atoms in the chain
  std::uint64_t seed = 2010;
};

/// Build a solvated-protein-like system: one bonded chain plus solvent
/// triads on a jittered lattice, zero net momentum, zero net charge.
MDSystem buildSyntheticSystem(const SyntheticSystemParams& p = {});

}  // namespace anton::md
