// The MD dataflow mapped onto the Anton machine model (SC10 §IV, Fig. 2).
//
// One coroutine per node choreographs a time step exactly as the paper
// describes:
//   * atom positions multicast to the HTIS units of the neutral-territory
//     import region (SC10 §IV-B1, its ref. [28]; md/import_regions.hpp):
//     every node's box goes to its own HTIS plus the 6 nodes whose tower
//     (z ± 1) or half plate holds it, as fine-grained (one atom per packet)
//     counted remote writes. Every HTIS holds a preloaded table of its
//     sources' populations, which changes only at migration: each node then
//     multicasts its new count on the same pattern, so counter targets stay
//     preloaded and only real atoms travel. Each pair of atoms is computed
//     on one node — the neutral one for boxes in different columns — which
//     returns one force packet per imported atom to its home (7 streams per
//     box, against 14 under the half-shell ablation);
//   * bonded-term positions unicast to the statically assigned compute
//     nodes of the *bond program* (§IV-B2), forces returned to the home
//     accumulation memory as fixed-point accumulation packets;
//   * charge spreading into remote accumulation memories, a distributed
//     dimension-ordered FFT, influence multiply, inverse FFT, and a
//     potential-halo multicast for force interpolation (§IV-B3);
//   * a dimension-ordered multicast all-reduce for the thermostat (§IV-B4);
//   * migration through the hardware message FIFOs, flushed by an in-order
//     counted write to all 26 neighbors (§IV-B5), with relaxed home-box
//     margins so migration can run every N steps.
//
// Real positions, forces and grid data travel in the simulated packets, so
// the distributed trajectory tracks the ReferenceEngine within fixed-point
// accumulation tolerance while the simulator provides the paper's timing
// observables.
#pragma once

#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "core/allreduce.hpp"
#include "core/multicast.hpp"
#include "core/neighborhood.hpp"
#include "core/recovery.hpp"
#include "core/schedule.hpp"
#include "fft/distributed.hpp"
#include "md/engine.hpp"
#include "md/import_regions.hpp"
#include "net/machine.hpp"
#include "trace/activity.hpp"
#include "verify/plan.hpp"

namespace anton::md {

struct AntonMdConfig {
  // Physics (must match the ReferenceEngine for equivalence tests).
  ForceParams force;
  EwaldParams ewald;
  double dt = 0.002;
  int longRangeInterval = 2;   ///< long-range work every other step (Table 3)
  int thermostatInterval = 2;  ///< temperature control every other step
  double thermostatTau = 0.0;  ///< 0 disables the thermostat
  double targetTemperature = 1.0;

  // Decomposition.
  /// Which node computes each range-limited pair (md/import_regions.hpp);
  /// half shell is kept as the ablation.
  ImportMethod importMethod = ImportMethod::kNeutralTerritory;
  double homeBoxMarginFrac = 0.15;  ///< relaxed home boxes: margin as a
                                    ///< fraction of the per-node box
  int migrationInterval = 8;        ///< steps between migration phases

  // Receive-buffer provisioning.
  double packetHeadroom = 1.35;  ///< per-source receive capacity = headroom *
                                 ///< max(initial, average) atoms per node
                                 ///< (worst-case density fluctuation,
                                 ///< §IV-B1); a capacity, not a packet count:
                                 ///< migration past it fails loudly

  // Compute-time calibration (nanoseconds).
  double htisPairNs = 0.9;        ///< per range-limited pair in the HTIS
  double htisStreamNs = 2.0;      ///< per-packet streaming slot of the HTIS
  double gcBondNs = 20.0;         ///< per bond term on the geometry cores
  double gcAngleNs = 35.0;
  double gcDihedralNs = 55.0;
  double integrateAtomNs = 9.0;   ///< per-atom position/velocity update
  double spreadAtomNs = 32.0;     ///< charge spreading per atom
  double interpAtomNs = 36.0;     ///< force interpolation per atom
  double migrateAtomNs = 120.0;   ///< per migrated atom bookkeeping

  double fixedPointScale = double(1 << 20);  ///< force/charge quantization

  // Erasure recovery (core/recovery.hpp): when the fault model drops a
  // packet at retransmit-cap exhaustion, the step's counted-write waits
  // re-issue the missing data from a sender-side DropRegistry instead of
  // hanging. 0 disables recovery entirely — no registry, no watchdogs, and
  // step timing bit-identical to the recovery-free app.
  double recoveryTimeoutUs = 0.0;  ///< per-attempt watchdog deadline
  int recoveryMaxResends = 4;      ///< resend rounds before hard failure
  double recoveryBackoffUs = 0.5;  ///< linear backoff between rounds

  // Resource layout (counter ids on the respective clients): the MD
  // phases' own counters are AntonMdApp::kCtr*, the thermostat's
  // all-reduce takes its defaults (counter 200, patterns 208+).
  /// Distributed FFT (counters 220+, slice 1). The MD pipeline batches grid
  /// points into packets (pointsPerPacket = 0 selects the largest
  /// contiguous batch); set 1 for the paper-faithful one-point-per-packet
  /// pattern at the cost of more traffic.
  fft::DistributedFftConfig fftConfig{.pointsPerPacket = 0};
};

/// Per-step critical-path timing (max over nodes), in microseconds.
struct StepTiming {
  int stepNumber = 0;
  bool longRange = false;
  bool thermostat = false;
  bool migration = false;
  double totalUs = 0.0;
  double fftUs = 0.0;        ///< FFT-based convolution (long-range steps)
  double thermostatUs = 0.0; ///< global reduction + rescale
  double migrationUs = 0.0;  ///< FIFO traffic + flush + bookkeeping
  // Phase breakdown (max over nodes):
  double posSendUs = 0.0;    ///< position/bond-position injection window
  double htisUs = 0.0;       ///< HTIS wait + pair compute + force streaming
  double bondedUs = 0.0;     ///< bonded wait + geometry cores + returns
  double lrUs = 0.0;         ///< full long-range phase
  double forceWaitUs = 0.0;  ///< integration wait on the force counter
};

class AntonMdApp {
 public:
  AntonMdApp(net::Machine& machine, MDSystem system, AntonMdConfig cfg = {});

  /// Run `k` time steps collectively (blocking host call: spawns one task
  /// per node and drives the simulator until the steps complete).
  void runSteps(int k);

  /// Reconstruct the global system state from the distributed home boxes
  /// (atoms ordered by global id).
  MDSystem gatherSystem() const;

  const std::vector<StepTiming>& stepTimings() const { return timings_; }
  const StepTiming& lastStep() const { return timings_.back(); }
  int stepsDone() const { return stepsDone_; }

  /// Mean inter-node hop distance of bonded-term position traffic — the
  /// quantity that degrades as atoms diffuse (SC10 Fig. 11).
  double averageBondHops() const;

  /// Rebuild the bond program from current atom positions (SC10 §IV-B2:
  /// done every 100k-200k steps on the real machine).
  void regenerateBondProgram();

  /// Experiment support (Fig. 11): emulate the diffusion accumulated over a
  /// long sampling gap by exchanging the positions of randomly chosen nearby
  /// solvent molecules (`swapFraction` of them per call) and fast-forwarding
  /// the home-box reassignment that stepwise migration would have performed.
  /// Molecule swaps preserve liquid packing (no overlaps, stable physics)
  /// while carrying atoms away from their statically assigned bond-program
  /// nodes — the aging the experiment measures. Forces are re-bootstrapped
  /// host-side; the bond program is left untouched.
  void syntheticDiffusion(double swapFraction, std::uint64_t seed);

  /// Aggregate erasure-recovery activity across all nodes and steps (zero
  /// when recovery is disabled or no drop ever occurred).
  const core::RecoveryStats& recoveryStats() const { return recoveryStats_; }
  /// Packet drops observed by the registry (0 when recovery is disabled).
  std::uint64_t dropsObserved() const {
    return dropRegistry_ ? dropRegistry_->dropsObserved() : 0;
  }

  /// Static communication plan of one template superstep (the worst-case
  /// step: long-range + thermostat + migration all active), in the
  /// verifier's vocabulary (src/verify/): phase edges, then a copy of the
  /// step schedule (core::CountedSchedule), the table the live waits and
  /// recovery read, with each wait counted by the live round rule
  /// (addRound) in a step where every kind is active: every send
  /// (position/bond multicasts and unicasts, force returns, charge
  /// spreading, the potential halo, the migration FIFO lanes, flush and
  /// count multicast), every counter expectation and every receive buffer.
  /// The FFT pair and the all-reduce append copies of their own schedules
  /// the same way. Waits are marked recovery-armed exactly where the live
  /// app arms core::recoverCounted (every counted wait when recovery is on;
  /// FIFO migration payloads remain the unrecoverable lane).
  verify::CommPlan extractCommPlan() const;

  /// Total atoms migrated since construction.
  std::uint64_t totalMigrated() const { return migratedTotal_; }
  int homeAtoms(int node) const { return int(nodes_[std::size_t(node)].atoms.size()); }

  net::Machine& machine() { return machine_; }

 private:
  // Resource layout: counter ids of the MD phases on the respective clients.
  static constexpr int kCtrPos = 10;      ///< HTIS: position packets
  static constexpr int kCtrForce = 11;    ///< accum 0: force packets
  static constexpr int kCtrGrid = 12;     ///< accum 1: spread-charge packets
  static constexpr int kCtrPot = 13;      ///< FFT slice: potential-halo packets
  static constexpr int kCtrBondPos = 14;  ///< slice 0: bonded-term positions
  static constexpr int kCtrFlush = 15;    ///< slice 0: migration flush
  static constexpr int kCtrCount = 16;    ///< HTIS: population counts

  struct AtomRecord {
    int gid = -1;
    Vec3 pos;
    Vec3 vel;
  };

  // --- step schedule -----------------------------------------------------
  // One per-node table (core/schedule.hpp) turns the decomposition (import
  // regions, current populations, bond program, 26-neighbourhood, FFT block
  // size) into packet counts. Each phase declares its sends; each wait is the
  // transpose of the sends that reach its (client, counter). The live waits
  // and recovery add one round of a wait's arrivals per step, extractCommPlan
  // copies the table and counts each wait's round of the template superstep
  // the same way. Rebuilt host-side whenever populations or the bond program
  // change.

  /// Step kinds a send is issued on (mask bits).
  enum StepKind : std::uint8_t {
    kEveryStep = 1,
    kLongRangeStep = 2,
    kMigrationStep = 4,
    /// The plan's template superstep: every kind active.
    kTemplateStep = kEveryStep | kLongRangeStep | kMigrationStep,
  };
  /// The schedule's name table (kNames): the superstep's phases, then the
  /// wait sites and buffers not named after a phase.
  struct Phase {
    enum : std::uint8_t {
      kSend, kHtis, kBonded, kSpread, kGrid, kPot, kInterp, kForceWait, kFifo,
      kMigrate
    };
  };
  struct Label {
    enum : std::uint8_t {
      kCount = Phase::kMigrate + 1, kPos, kBondPos, kPotential, kForces,
      kFlush, kPosBuffer, kCountBuffer, kBondPosBuffer
    };
  };
  static constexpr std::string_view kNames[] = {
      "md.send",       "md.htis",      "md.bonded",  "md.spread",
      "md.grid",       "md.pot",       "md.interp",  "md.forcewait",
      "md.fifo",       "md.migrate",   "md.htis.count", "md.htis.pos",
      "md.bonded.pos", "md.potential", "md.forces",  "md.migration.flush",
      "md.pos",        "md.count",     "md.bondpos"};

  /// A node's counter waits, in plan order.
  enum Site {
    kCountSite, kPosSite, kBondPosSite, kGridSite, kPotSite, kForceSite,
    kFlushSite, kNumSites
  };

  struct NodeState {
    std::vector<AtomRecord> atoms;   ///< home atoms, sorted by gid
    std::vector<Vec3> forces;        ///< decoded from accum memory per step
  };

  // --- setup -------------------------------------------------------------
  void partitionAtoms(const MDSystem& sys);
  void buildBondProgram();
  void installPatterns();
  void buildSchedule();
  void preloadImportCounts();
  void computeInitialForces();

  // --- geometry ----------------------------------------------------------
  int ownerOf(const Vec3& pos) const;
  Vec3 nodeBoxOrigin(int node) const;
  bool insideRelaxedBox(int node, const Vec3& pos) const;

  // --- per-step tasks ----------------------------------------------------
  unsigned stepKinds(int stepNumber) const;
  sim::Task stepTask(int node, int stepNumber);
  sim::Task sendPositions(int node);
  sim::Task bondedPhase(int node);
  sim::Task htisPhase(int node, int stepNumber);
  sim::Task longRangePhase(int node);
  sim::Task migrationPhase(int node);
  void zeroForceSlots(int node);

  // --- helpers -----------------------------------------------------------
  /// Advance `node`'s wait at `site` by one round of the scheduled arrivals
  /// of step kinds `kinds`, and await the cumulative target.
  core::CountedWait awaitSite(int node, Site site, unsigned kinds) {
    return schedule_.awaitRound(machine_, node, site, kinds, recoveryHooks_);
  }
  std::int32_t quantize(double v) const {
    return std::int32_t(std::llround(v * cfg_.fixedPointScale));
  }
  double dequantize(std::int32_t v) const {
    return double(v) / cfg_.fixedPointScale;
  }
  std::uint32_t posSlotAddr(int srcNode, int slot) const;
  /// HTIS count-table entry of `srcNode` (after the position regions).
  std::uint32_t countSlotAddr(int srcNode) const;
  std::uint32_t forceSlotAddr(int slot) const {
    return std::uint32_t(slot) * 12u;
  }

  net::Machine& machine_;
  AntonMdConfig cfg_;
  util::TorusShape shape_;
  Vec3 box_;
  Vec3 nodeBox_;     ///< per-node box dimensions
  Vec3 margin_;      ///< relaxed-box margin (absolute)

  // Static per-atom properties, indexed by gid (charges/masses don't move).
  std::vector<double> charges_;
  std::vector<double> masses_;
  std::vector<double> ljStrength_;
  MDSystem topology_;  ///< bonds/angles/dihedrals + box (positions unused)

  std::vector<NodeState> nodes_;
  /// The step schedule; its wait state advances from it (the position
  /// wait from the HTIS count tables instead).
  core::CountedSchedule schedule_;
  int posRegionSlots_ = 0;  ///< max capacity over nodes (region stride)
  /// Per source node: receive slots at the worst-case headroom (§IV-B1).
  /// A capacity only — packets carry real atoms, counted by the HTIS count
  /// tables.
  std::vector<int> posCapacity_;

  /// Import and export lists plus each node's box pairs, from the rule of
  /// cfg_.importMethod.
  ImportRegions imports_;
  std::vector<int> posPattern_;                ///< multicast pattern per node
  std::vector<int> potPattern_;                ///< potential-halo pattern

  // Bond program: every term assigned to a compute node; per-node lists.
  struct TermRef {
    enum Kind { kBond, kAngle, kDihedral } kind;
    int index;  ///< into topology_.{bonds,angles,dihedrals}
  };
  std::vector<std::vector<TermRef>> termsOnNode_;
  /// Per compute node: atom gid -> receive slot in slice0 memory.
  std::vector<std::map<int, int>> bondAtomSlot_;
  /// Per atom gid: the distinct compute nodes needing its position.
  std::vector<std::vector<int>> atomTermNodes_;

  /// Solvent molecules (connected bond components of <= 4 atoms), used by
  /// syntheticDiffusion.
  std::vector<std::vector<int>> solventMolecules_;

  std::unique_ptr<core::DropRegistry> dropRegistry_;  ///< recovery only
  core::RecoveryStats recoveryStats_;
  /// Shared arming handle (registry + config + stats) for every counted
  /// wait: the MD phases' waits on schedule_, the FFT's and the
  /// all-reduce's. Disarmed (null registry) when recovery is off.
  core::RecoveryHooks recoveryHooks_;
  /// Start of the previous step: older replay entries are pruned (recovery
  /// only).
  sim::Time prevStepStart_ = 0;

  std::unique_ptr<core::PatternAllocator> patterns_;
  std::unique_ptr<core::NeighborhoodSync> migrationSync_;
  std::unique_ptr<core::DimOrderedAllReduce> allReduce_;
  std::unique_ptr<fft::DistributedFft3D> fft_;
  std::unique_ptr<MeshEwald> ewald_;

  int stepsDone_ = 0;
  std::vector<StepTiming> timings_;
  std::uint64_t migratedTotal_ = 0;

  /// Receive-region modulus: smallest R such that srcNode % R is
  /// collision-free within every 27-neighborhood (multicast packets carry a
  /// single address, so regions must be a function of the source alone).
  int posRegionMod_ = 1;
  /// Per node: interpolated long-range forces of the current step.
  std::vector<std::vector<Vec3>> lrForce_;

  // Per-step coordination (filled while a step runs).
  StepTiming current_;
};

}  // namespace anton::md
