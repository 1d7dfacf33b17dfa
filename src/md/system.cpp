#include "md/system.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "sim/rng.hpp"

namespace anton::md {

Vec3 MDSystem::wrap(Vec3 p) const {
  p.x -= box.x * std::floor(p.x / box.x);
  p.y -= box.y * std::floor(p.y / box.y);
  p.z -= box.z * std::floor(p.z / box.z);
  // floor can round such that p == box under FP; clamp into range.
  if (p.x >= box.x) p.x -= box.x;
  if (p.y >= box.y) p.y -= box.y;
  if (p.z >= box.z) p.z -= box.z;
  return p;
}

double MDSystem::kineticEnergy() const {
  double ke = 0.0;
  for (std::size_t i = 0; i < velocities.size(); ++i)
    ke += 0.5 * masses[i] * velocities[i].norm2();
  return ke;
}

double MDSystem::temperature() const {
  if (positions.empty()) return 0.0;
  return 2.0 * kineticEnergy() / (3.0 * double(numAtoms()));
}

Vec3 MDSystem::totalMomentum() const {
  Vec3 p;
  for (std::size_t i = 0; i < velocities.size(); ++i)
    p += masses[i] * velocities[i];
  return p;
}

MDSystem buildSyntheticSystem(const SyntheticSystemParams& p) {
  if (p.targetAtoms < 6) throw std::invalid_argument("system too small");
  sim::Rng rng(p.seed);
  MDSystem sys;

  // Cubic box sized for the requested density.
  double volume = double(p.targetAtoms) / p.density;
  double side = std::cbrt(volume);
  sys.box = {side, side, side};

  // Lattice with one site per atom, jittered to break symmetry.
  int cells = int(std::ceil(std::cbrt(double(p.targetAtoms))));
  double spacing = side / cells;
  auto sitePos = [&](int idx) {
    int x = idx % cells;
    int y = (idx / cells) % cells;
    int z = idx / (cells * cells);
    Vec3 base{(x + 0.5) * spacing, (y + 0.5) * spacing, (z + 0.5) * spacing};
    Vec3 jitter{rng.uniform(-0.08, 0.08) * spacing,
                rng.uniform(-0.08, 0.08) * spacing,
                rng.uniform(-0.08, 0.08) * spacing};
    return sys.wrap(base + jitter);
  };

  // Protein-like chain: consecutive lattice sites are adjacent in space, so
  // chain bonds start short (local bond program traffic, like a folded
  // protein in its box region).
  int proteinAtoms = std::max(4, int(p.proteinFraction * p.targetAtoms));
  int solventTriads = (p.targetAtoms - proteinAtoms) / 3;
  int total = proteinAtoms + solventTriads * 3;

  sys.positions.reserve(std::size_t(total));
  sys.charges.reserve(std::size_t(total));
  sys.masses.reserve(std::size_t(total));
  for (int i = 0; i < total; ++i) {
    sys.positions.push_back(sitePos(i));
    sys.masses.push_back(1.0);
  }
  sys.ljStrength.assign(std::size_t(total), 1.0);

  // Chain topology: bonds (i,i+1), angles (i,i+1,i+2), dihedrals (i..i+3).
  for (int i = 0; i < proteinAtoms; ++i)
    sys.charges.push_back((i % 2 == 0) ? 0.3 : -0.3);
  for (int i = 0; i + 1 < proteinAtoms; ++i)
    sys.bonds.push_back({i, i + 1, 1.0, 10.0});
  for (int i = 0; i + 2 < proteinAtoms; ++i)
    sys.angles.push_back({i, i + 1, i + 2, 2.0 * std::numbers::pi / 3.0, 5.0});
  for (int i = 0; i + 3 < proteinAtoms; ++i)
    sys.dihedrals.push_back({i, i + 1, i + 2, i + 3, 0.5, 3, 0.0});

  // Solvent triads: O-like center with two H-like satellites.
  for (int t = 0; t < solventTriads; ++t) {
    int o = proteinAtoms + 3 * t;
    sys.charges.push_back(-0.8);
    sys.charges.push_back(0.4);
    sys.charges.push_back(0.4);
    // Hydrogen-like satellites carry no LJ (cf. 3-site water models); only
    // the center repels, so tight intra-molecular geometry stays stable.
    sys.ljStrength[std::size_t(o) + 1] = 0.0;
    sys.ljStrength[std::size_t(o) + 2] = 0.0;
    sys.bonds.push_back({o, o + 1, 0.6, 20.0});
    sys.bonds.push_back({o, o + 2, 0.6, 20.0});
    sys.angles.push_back({o + 1, o, o + 2, 1.91, 10.0});
    // Pull the satellites near the center so bonds start relaxed.
    Vec3 c = sys.positions[std::size_t(o)];
    sys.positions[std::size_t(o) + 1] =
        sys.wrap(c + Vec3{0.6, 0.05 * rng.uniform(), 0.0});
    sys.positions[std::size_t(o) + 2] =
        sys.wrap(c + Vec3{-0.2, 0.55, 0.05 * rng.uniform()});
  }

  // Maxwell velocities at the target temperature, net momentum removed.
  sys.velocities.resize(std::size_t(total));
  double sigma = std::sqrt(p.temperature);
  for (auto& v : sys.velocities)
    v = {rng.normal(0.0, sigma), rng.normal(0.0, sigma), rng.normal(0.0, sigma)};
  Vec3 drift = sys.totalMomentum() * (1.0 / double(total));
  for (auto& v : sys.velocities) v -= drift;

  return sys;
}

}  // namespace anton::md
