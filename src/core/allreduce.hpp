// Global reductions built from multicast counted remote writes.
//
// Anton has no reduction hardware; SC10 §IV-B4 composes all-reduce from the
// primitives instead. The dimension-ordered algorithm decomposes the 3D
// reduction into parallel 1D all-reduces along x, then y, then z: each of
// the N nodes on a line broadcasts its value to the other N-1 (multicast
// counted remote writes, both ring directions), then every node redundantly
// computes the same ordered sum in software on processing slice k (k = the
// dimension index). Three rounds reach the global sum with the minimum hop
// count; the butterfly variant below is the ablation baseline the paper
// compares against (3*log2(N) rounds, 3(N-1) hops).
//
// Each line broadcast uses one multicast pattern per (dimension, line
// position): construction writes its row into every node's table, and the
// rows of different lines never meet. The broadcasts, the waits that count
// them (their arrivals read from those tables) and the slots they fill are
// one counted-traffic schedule (core/schedule.hpp): the live waits and the
// static plan both read it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/recovery.hpp"
#include "core/schedule.hpp"
#include "net/machine.hpp"
#include "sim/task.hpp"
#include "verify/plan.hpp"

namespace anton::core {

struct AllReduceConfig {
  int counterId = 200;    ///< sync counter id on each participating slice
  std::uint32_t memBase = 0x28000;  ///< receive-slot base in slice memory
  double roundOverheadNs = 75.0;  ///< per-dimension software overhead
  double perWordNs = 4.0;         ///< software add cost per received word
};

/// Dimension-ordered all-reduce over every node of a machine. Construct
/// once (writes the line-broadcast patterns into every node's table, ids
/// 208 up), then spawn `run`
/// collectively — one task per node — any number of times. The last
/// participating slice shares the global sum with its three peers.
class DimOrderedAllReduce {
 public:
  DimOrderedAllReduce(net::Machine& machine, AllReduceConfig cfg = {});

  /// Collective: every node must spawn this once per reduction. `out`
  /// receives the element-wise sum over all nodes (identical bytes on every
  /// node); pass nullptr to discard. An empty `in` is a pure barrier.
  sim::Task run(int nodeIdx, std::vector<double> in, std::vector<double>* out);

  /// Collective barrier: a 0-byte reduction.
  sim::Task barrier(int nodeIdx) { return run(nodeIdx, {}, nullptr); }

  const AllReduceConfig& config() const { return cfg_; }

  /// Arm end-to-end erasure recovery on each dimension's line-broadcast
  /// wait (both the reduction stages and the final dimension's fan-out of
  /// the result): armed waits diagnose dropped replicas per source and
  /// replay them from the hooks' DropRegistry. Disarmed (default) the waits
  /// are plain counter polls — bit-identical timing. Throws
  /// std::logic_error once a run has awaited a round: disarmed rounds keep
  /// no per-source totals, so waits armed afterwards would find nothing
  /// missing and never replay.
  void setRecovery(const RecoveryHooks& hooks);

  /// Append this all-reduce's static communication plan (one phase per
  /// participating dimension, then the local share, chained after
  /// `afterPhase`) to `plan`: the phase edges, the schedule's copy — per-line
  /// broadcast writes, counter expectations, the parity-double-buffered slot
  /// regions, the uncounted share writes — and each source's line tree,
  /// copied from the installed rows of its line.
  /// Returns the name of the final phase appended.
  std::string appendPlan(verify::CommPlan& plan,
                         const std::string& afterPhase) const;

 private:
  int patternId(int dim, int pos) const;
  std::uint32_t slotAddr(int pos, int parity) const;
  /// The last participating dimension (-1 on a single node).
  int lastDim() const;
  /// The node at line position `pos` of `node`'s line along `dim`.
  int lineNode(int node, int dim, int pos) const;
  /// Write the line-broadcast patterns and build the schedule.
  void buildSchedule();

  net::Machine& machine_;
  AllReduceConfig cfg_;
  /// Wait d is the line-broadcast counter on slice d; its rounds drive the
  /// double-buffer parity.
  CountedSchedule schedule_;
  RecoveryHooks recovery_;
};

/// Radix-2 butterfly all-reduce (recursive doubling per dimension): the
/// algorithm the paper argues against on a torus. Requires power-of-two
/// extents. Used by the ablation bench.
class ButterflyAllReduce {
 public:
  ButterflyAllReduce(net::Machine& machine, AllReduceConfig cfg = {});

  sim::Task run(int nodeIdx, std::vector<double> in, std::vector<double>* out);

 private:
  std::uint32_t slotAddr(int dim, int round, int parity) const;

  net::Machine& machine_;
  AllReduceConfig cfg_;
  std::vector<std::array<std::uint64_t, 3>> sent_;  ///< cumulative per dim
  std::vector<std::uint64_t> calls_;                ///< per node call count
  std::array<int, 3> roundsPerDim_{};
};

}  // namespace anton::core
