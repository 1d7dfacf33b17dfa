// FaultPlan: a deterministic, seedable schedule of network faults.
//
// Three fault classes (DESIGN.md §7):
//   * link bit errors — every wire bit flips independently with probability
//     `bitErrorRate`; a corrupt packet is caught by the per-link CRC and
//     replayed by link-level retransmission (the Anton 3 reliability design,
//     Shim et al.), charging a calibrated penalty per replay;
//   * link outage windows — an outgoing link is unusable for [from, until);
//     packets either stall at the adapter or, in degraded mode
//     (MachineConfig::faultReroute, and every recovery replay), route
//     around it via a non-preferred dimension order;
//   * stalled-router intervals — a node's on-chip ring holds all traffic
//     entering it until the window closes.
//
// Determinism: all randomness comes from the plan's own xoshiro RNG seeded
// at construction, drawn in traversal order (which the event kernel makes
// deterministic). A plan with bitErrorRate == 0 and no windows never draws
// and leaves machine timing bit-identical to running with no plan installed.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/fault_hooks.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace anton::fault {

struct FaultConfig {
  std::uint64_t seed = 0x5eedULL;
  double bitErrorRate = 0.0;  ///< independent flip probability per wire bit
  /// Replay cap per traversal. After this many consecutive corrupt copies
  /// one final copy is attempted; if it is also corrupt the plan declares
  /// the link failed for that traversal (LinkFaultOutcome::linkFailed) and
  /// the machine drops the packet replica instead of silently delivering a
  /// corrupt one. Recovery is then software's job (core/recovery.hpp).
  int maxRetransmits = 16;
};

/// Tallies kept by the plan itself, complementing net::MachineStats.
struct FaultPlanStats {
  std::uint64_t traversalsSeen = 0;
  std::uint64_t corruptTraversals = 0;  ///< traversals needing >= 1 replay
  std::uint64_t replays = 0;            ///< total corrupt copies replayed
  std::uint64_t linkFailures = 0;       ///< traversals that exhausted the cap
                                        ///< (packet replica dropped)
  std::uint64_t outageHits = 0;         ///< traversals landing in an outage
};

class FaultPlan final : public net::FaultModel {
 public:
  explicit FaultPlan(FaultConfig cfg = {});

  /// Schedule an outage of the outgoing link of `nodeIdx` in (dim, sign)
  /// over the half-open simulated-time window [from, until).
  void addLinkOutage(int nodeIdx, int dim, int sign, sim::Time from,
                     sim::Time until);

  /// Schedule a stall of the on-chip router ring of `nodeIdx` over
  /// [from, until): all traffic entering the node waits for the window end.
  void addRouterStall(int nodeIdx, sim::Time from, sim::Time until);

  const FaultConfig& config() const { return cfg_; }
  const FaultPlanStats& stats() const { return stats_; }

  // net::FaultModel
  net::LinkFaultOutcome onLinkTraversal(int nodeIdx, int dim, int sign,
                                        std::size_t wireBytes,
                                        sim::Time depart) override;
  bool linkDown(int nodeIdx, int dim, int sign, sim::Time t) const override;
  sim::Time routerStallUntil(int nodeIdx, sim::Time t) const override;

 private:
  struct Window {
    sim::Time from;
    sim::Time until;
  };
  static int linkKey(int nodeIdx, int dim, int sign);

  FaultConfig cfg_;
  sim::Rng rng_;
  std::unordered_map<int, std::vector<Window>> outages_;  ///< by link key
  std::unordered_map<int, std::vector<Window>> stalls_;   ///< by node index
  FaultPlanStats stats_;
};

}  // namespace anton::fault
