#include "cluster/desmond.hpp"

#include <algorithm>
#include <cmath>

#include "sim/simulator.hpp"

namespace anton::cluster {

namespace {

/// Run one collective phase across all nodes of a fresh cluster and return
/// the critical-path (max over nodes) completion time in microseconds.
template <typename MakeTask>
double phaseTime(int numNodes, MakeTask makeTask) {
  sim::Simulator sim;
  ClusterMachine m(sim, numNodes);
  for (int n = 0; n < numNodes; ++n) m.sim().spawn(makeTask(m, n));
  sim.run();
  return sim::toUs(sim.now());
}

int cubeRootExtent(int numNodes) {
  int e = int(std::round(std::cbrt(double(numNodes))));
  while (e > 1 && numNodes % (e * e) != 0) --e;
  return e;
}

}  // namespace

DesmondTimes measureDesmond(const DesmondWorkload& w) {
  DesmondTimes t;

  // Logical 3D decomposition of the cluster for neighbor exchange.
  int e = cubeRootExtent(w.numNodes);
  util::TorusShape shape{e, e, std::max(1, w.numNodes / (e * e))};
  std::size_t homeBytes =
      std::size_t(std::ceil(double(w.atoms) / w.numNodes * w.bytesPerAtom));

  // Positions out + forces back: two staged exchanges per range-limited step.
  double exchange = phaseTime(w.numNodes, [&](ClusterMachine& m, int n) {
    return stagedNeighborExchange(m, shape, n, homeBytes, nullptr);
  });
  t.rangeLimitedUs = 2.0 * exchange * w.imbalanceFactor;

  // FFT: forward + inverse, two pencil-group transposes each.
  std::size_t gridBytes = std::size_t(w.fftGrid) * std::size_t(w.fftGrid) *
                          std::size_t(w.fftGrid) * 16;
  std::size_t perPair = std::max<std::size_t>(
      64, gridBytes / std::size_t(w.numNodes) / std::size_t(w.fftGroup));
  double transpose = phaseTime(w.numNodes, [&](ClusterMachine& m, int n) {
    std::vector<int> group(std::size_t(w.fftGroup));
    int base = (n / w.fftGroup) * w.fftGroup;
    for (int i = 0; i < w.fftGroup; ++i) group[std::size_t(i)] = base + i;
    return allToAll(m, group, n - base, perPair, 3000);
  });
  t.fftUs = 4.0 * transpose * w.imbalanceFactor;

  // Thermostat: kinetic-energy all-reduce plus the rescale round trip.
  double reduce = phaseTime(w.numNodes, [&](ClusterMachine& m, int n) {
    return allReduce(m, n, std::vector<double>(4, double(n)), nullptr);
  });
  t.thermostatUs = 2.0 * reduce;

  // A long-range step adds charge-spread/interpolation exchange (one more
  // staged round trip), the FFT, and the thermostat.
  t.longRangeUs = t.rangeLimitedUs + exchange * w.imbalanceFactor + t.fftUs +
                  t.thermostatUs;
  t.averageUs = 0.5 * (t.rangeLimitedUs + t.longRangeUs);
  return t;
}

}  // namespace anton::cluster
