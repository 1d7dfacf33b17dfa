// Force-field kernels: bonded terms and range-limited non-bonded pairs.
//
// Non-bonded forces follow the paper's split (SC10 §II): a range-limited
// part — Lennard-Jones plus the erfc-damped real-space Ewald electrostatics
// — computed directly within a cutoff, and a long-range part handled by the
// FFT-based convolution (md/ewald.hpp). All kernels return the potential
// energy and accumulate forces; tests validate every kernel against
// numerical gradients.
#pragma once

#include <functional>
#include <vector>

#include "md/system.hpp"

namespace anton::md {

struct ForceParams {
  double cutoff = 2.5;
  double ewaldKappa = 1.0;  ///< real/reciprocal splitting parameter
  double coulomb = 1.0;     ///< Coulomb constant (reduced units)
  bool shiftLJ = true;      ///< shift LJ so U(cutoff) = 0 (energy tests)
};

/// One bonded term each; forces accumulate into f, energy is returned.
double bondForce(const MDSystem& sys, const Bond& b, std::vector<Vec3>& f);
double angleForce(const MDSystem& sys, const Angle& a, std::vector<Vec3>& f);
double dihedralForce(const MDSystem& sys, const Dihedral& d, std::vector<Vec3>& f);

/// All bonded terms of the system.
double bondedForces(const MDSystem& sys, std::vector<Vec3>& f);

/// Range-limited kernel for one pair. `d` is the minimum-image displacement
/// from atom i to atom j. Returns the force on atom i (force on j is the
/// negation) and the pair energy; zero beyond the cutoff.
struct PairForce {
  Vec3 onI;
  double energy = 0.0;
};
PairForce rangeLimitedPair(const Vec3& d, double qi, double qj,
                           const ForceParams& p, double ljPrefactor = 1.0);

/// O(N) cell-list pair iteration. Falls back to the O(N^2) loop when the box
/// is too small for 3 cells per dimension.
class CellList {
 public:
  CellList(const MDSystem& sys, double cutoff);

  /// Visit every unordered pair within the cutoff exactly once with the
  /// minimum-image displacement i -> j.
  void forEachPair(const MDSystem& sys,
                   const std::function<void(int, int, const Vec3&)>& fn) const;

 private:
  bool bruteForce_ = false;
  double cutoff_;
  int nx_ = 0, ny_ = 0, nz_ = 0;
  int numAtoms_ = 0;
  std::vector<std::vector<int>> cells_;
};

/// Full range-limited force evaluation (cell list + kernel).
double rangeLimitedForces(const MDSystem& sys, const ForceParams& p,
                          std::vector<Vec3>& f);

}  // namespace anton::md
