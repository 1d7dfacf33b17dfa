// Distributed dimension-ordered 3D FFT on the Anton machine model.
//
// SC10 §IV-B3 (and the companion SC09 paper [47]): the 3D transform is
// decomposed into 1D FFT passes along x, then y, then z (reverse order for
// the inverse). Before each pass, grid data is gathered into full lines with
// fine-grained counted remote writes (one grid point per packet by default);
// line ownership is distributed round-robin among the nodes of each torus
// ring, so all FFT communication stays within single-dimension rings. After
// the per-line FFTs, results scatter back to the home blocks the same way.
// Per-dimension synchronization counters track the incoming remote writes.
// Every pass's sends, the waits that count them and the receive regions
// they fill are one counted-traffic schedule (core/schedule.hpp), built at
// construction: the live waits and the static plan both read it.
//
// The complex grid values really travel through the simulated network, so
// the distributed result is bit-identical to the host-side fft3d reference.
#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <vector>

#include "core/recovery.hpp"
#include "core/schedule.hpp"
#include "fft/fft1d.hpp"
#include "net/machine.hpp"
#include "sim/task.hpp"
#include "verify/plan.hpp"

namespace anton::fft {

struct DistributedFftConfig {
  /// Grid points per packet. 1 reproduces the paper's one-point-per-packet
  /// fine-grained pattern; 0 selects the largest contiguous batch (<= 16).
  int pointsPerPacket = 1;
  double fftPointNs = 2.5;   ///< per-point cost of a 1D FFT butterfly stage
  double packPointNs = 1.0;  ///< per-point marshalling cost (pack or unpack)
};

/// One grid block distributed per node; construct once, then run collective
/// forward/inverse transforms any number of times.
class DistributedFft3D {
 public:
  DistributedFft3D(net::Machine& machine, int gx, int gy, int gz,
                   DistributedFftConfig cfg = {});

  int gx() const { return g_[0]; }
  int gy() const { return g_[1]; }
  int gz() const { return g_[2]; }
  /// Home-block extents (grid points per node per dimension).
  int blockExtent(int dim) const { return b_[std::size_t(dim)]; }
  std::size_t blockSize() const {
    return std::size_t(b_[0]) * std::size_t(b_[1]) * std::size_t(b_[2]);
  }

  /// Host access to a node's home block (x fastest, then y, then z —
  /// local coordinates relative to the block origin).
  std::vector<Complex>& home(int nodeIdx) { return home_[std::size_t(nodeIdx)]; }
  const std::vector<Complex>& home(int nodeIdx) const {
    return home_[std::size_t(nodeIdx)];
  }

  /// Global grid coordinate of a local block index on a node.
  std::array<int, 3> globalCoord(int nodeIdx, std::size_t localIdx) const;

  /// Scatter a full grid into the per-node home blocks / gather it back.
  void loadGrid(const std::vector<Complex>& grid);  // x-fastest global layout
  std::vector<Complex> extractGrid() const;

  /// Collective: every node spawns one task per transform. After completion
  /// on a node, that node's home block holds its slab of the (forward or
  /// inverse) transform.
  sim::Task run(int nodeIdx, bool inverse);

  /// Arm end-to-end erasure recovery on the per-dimension gather and scatter
  /// waits: armed waits diagnose dropped packets per source and replay them
  /// from the hooks' DropRegistry instead of hanging. Disarmed (the default)
  /// the waits are plain counter polls — bit-identical timing. Throws
  /// std::logic_error once a run has awaited a round: disarmed rounds keep
  /// no per-source totals, so waits armed afterwards would find nothing
  /// missing and never replay.
  void setRecovery(const core::RecoveryHooks& hooks);

  /// Messages a node sends per full transform (for bench reporting): the sum
  /// of its scheduled forward sends.
  std::uint64_t packetsPerNodePerTransform(int nodeIdx) const;

  /// Append the static communication plan of one forward+inverse pair to
  /// `plan`, chained after `afterPhase`: per-dimension gather / transform /
  /// unpack phase edges, then the schedule's copy — the ring-unicast write
  /// groups, counter expectations, and the receive regions, forward on
  /// parity copy 0 and inverse on copy 1 (as the MD step runs them).
  /// Returns the name of the final phase appended.
  std::string appendPlan(verify::CommPlan& plan,
                         const std::string& afterPhase) const;

  /// Slice running the FFT software on each node.
  static constexpr int kSlice = net::kSlice1;

 private:
  /// Round kinds of the schedule: the pass a send or wait belongs to.
  enum Kind : std::uint8_t { kForward = 1, kInverse = 2 };
  struct DimPlan {
    int d;                 ///< dimension of this pass
    int a, b;              ///< the two other dimensions (a < b)
    int ringSize;          ///< nodes along d
    int lineLen;           ///< grid points per line (Gd)
    int seg;               ///< points per ring-node segment (bd)
    int linesPerBlock;     ///< ba * bb
    int packetsPerSegment; ///< ceil(seg / pointsPerPacket)
    std::uint32_t gatherBase;   ///< parity-0 gather region offset
    std::uint32_t scatterBase;  ///< parity-0 scatter region offset
    std::uint32_t gatherRegion; ///< bytes per parity copy
    std::uint32_t scatterRegion;
  };

  /// Lines of a block owned by ring position `pos` (round-robin by lid).
  static int ownedLines(int pos, const DimPlan& p);
  /// Name-table index of phase `k` (gather, xform, unpack; 3 names the
  /// scatter region) of dimension `d`'s pass of the forward (`pass` 0) or
  /// inverse transform.
  static int phase(int pass, int d, int k) { return (pass * 3 + d) * 4 + k; }
  void buildSchedule();
  std::uint32_t gatherAddr(const DimPlan& p, int parity, int ord, int gp) const;
  std::uint32_t scatterAddr(const DimPlan& p, int parity, int lid, int dp) const;
  std::size_t homeIndex(const DimPlan& p, int la, int lb, int ld) const;

  net::Machine& machine_;
  DistributedFftConfig cfg_;
  std::array<int, 3> g_;  ///< grid extents
  std::array<int, 3> b_;  ///< block extents
  std::array<DimPlan, 3> plan_;
  std::vector<std::vector<Complex>> home_;
  /// Waits 2d (gather) and 2d + 1 (scatter) of dimension d, shared by the
  /// forward and inverse passes.
  core::CountedSchedule schedule_;
  core::RecoveryHooks recovery_;
};

}  // namespace anton::fft
