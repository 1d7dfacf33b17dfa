// Desmond-on-InfiniBand communication-time model (Table 3 baseline).
//
// The paper compares Anton's critical-path communication time against a
// 512-node Xeon/InfiniBand cluster running Desmond [12, 15]. We model
// Desmond's per-step communication by running its exchange patterns on the
// LogGP cluster: staged 6-message neighbor exchange for positions and
// forces (Fig. 8a), pencil-group all-to-alls for the FFT transposes, and
// recursive-doubling reductions for the thermostat. A calibrated imbalance
// factor accounts for load imbalance, synchronization waits, and the extra
// exchange rounds (constraints, pair-list margins) a real Desmond step
// performs — see DESIGN.md for the calibration against [15].
#pragma once

#include "cluster/collectives.hpp"
#include "cluster/network.hpp"

namespace anton::cluster {

struct DesmondWorkload {
  int numNodes = 512;
  int atoms = 23558;          ///< DHFR benchmark system
  double bytesPerAtom = 32.0; ///< position or force record on the wire
  int fftGrid = 32;           ///< FFT grid extent (cubed)
  int fftGroup = 32;          ///< nodes per all-to-all transpose group
  double imbalanceFactor = 1.75;
};

/// Per-phase critical-path communication times in microseconds.
struct DesmondTimes {
  double rangeLimitedUs = 0;  ///< position + force exchange of an RL step
  double fftUs = 0;           ///< forward + inverse FFT transposes
  double thermostatUs = 0;    ///< kinetic-energy reduce + rescale reduce
  double longRangeUs = 0;     ///< RL + charge-spread exchange + FFT + thermo
  double averageUs = 0;       ///< long-range work every other step
};

/// Runs the model on a fresh simulator and reports phase times.
DesmondTimes measureDesmond(const DesmondWorkload& w = {});

}  // namespace anton::cluster
