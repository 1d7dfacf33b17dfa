// Static critical-path and link-occupancy analysis of a CommPlan (ISSUE 9
// tentpole, DESIGN.md §12).
//
// The paper's whole argument is a latency budget: 162 ns end-to-end
// decomposed into assembly, hop and counter-poll costs, and communication
// time measured as the per-node critical path (SC10 Figs. 5/7, Table 3).
// This analyzer walks the plan's event-granular happens-before graph
// (verify/events.hpp) with the calibrated net::LatencyConfig and computes,
// before a single simulated cycle runs:
//
//   * the critical-path latency *lower bound* of the plan — a longest-path
//     relaxation where counted-delivery edges are priced at the static
//     minimum the live machine must charge (assembly, per-hop link-crossing
//     minima along the routed path, per-packet serialization spacing of a
//     burst, the local ring tail and the counter update/poll) and program
//     order is free — with the bottleneck path named event-by-event;
//   * per-link × per-phase message counts and occupancy-seconds (the wire
//     serialization the traffic must pay on each torus link), ranked as a
//     hotspot table — the adaptive-routing roadmap item's target list;
//   * degraded-mode inflation: the same bound re-priced with the declared
//     down links applied to every unicast route and multicast tree repair.
//
// Diagnostics (Violation::check):
//   "timing.contention"       — one phase offers a link more wire
//                               serialization than the whole round's
//                               critical-path budget: no schedule can
//                               sustain the claimed steady-state rate, the
//                               link is the binding resource. (Utilization
//                               above 1 inside a phase window alone is a
//                               reported bandwidth-bound hotspot, not an
//                               error: cross-write queuing is deliberately
//                               unpriced in the per-chain labels.)
//   "timing.degraded-blowup"  — the degraded critical path exceeds the
//                               healthy one by more than the configured
//                               factor (a reroute that wrecks the budget).
//   "timing.stalled"          — a delivery has no route at all under the
//                               declared down links (no finite bound).
//   "timing.cycle"            — the event graph is cyclic; no bound exists
//                               (the deadlock is event.deadlock's finding).
//
// Soundness contract: criticalPathNs never exceeds the live simulator's
// completion time for a run executing at least one template round —
// enforced dynamically by `verify_plans --timing-oracle`, which runs the
// live ping/MD/all-reduce schedules once each and pins the measured/bound
// slack ratio per plan family.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/latency.hpp"
#include "verify/checks.hpp"
#include "verify/plan.hpp"

namespace anton::verify {

struct TimingOptions {
  /// Template rounds unrolled for the critical path (2 covers every
  /// round-wrap edge kind; the steady-state per-round increment is the
  /// difference between the R-round and (R-1)-round bounds).
  int rounds = 2;
  /// Links assumed down for the degraded re-pricing; empty skips it.
  std::vector<TorusLink> downLinks;
  /// timing.degraded-blowup fires when degraded/healthy exceeds this.
  double degradedBlowupFactor = 2.0;
  /// Caps on the named bottleneck path and the ranked hotspot table.
  int maxPathEvents = 48;
  int maxHotspots = 12;
};

/// One event on the bottleneck path, earliest-first.
struct PathStep {
  std::string event;      ///< EventGraph::describe of the vertex
  double arrivalNs = 0.0; ///< earliest completion under the bound
  double edgeNs = 0.0;    ///< weight of the edge from the previous step
};

/// Offered load of one (torus link, phase) cell. The link is named by its
/// exit side: the packet leaves `node` through its (dim, sign) adapter.
struct LinkLoad {
  int node = 0;
  int dim = 0;
  int sign = +1;
  std::string phase;
  std::uint64_t packets = 0;   ///< packets per round crossing the link
  double occupancyNs = 0.0;    ///< serialization demand per round
  double windowNs = 0.0;       ///< static completion window of the traffic
  double utilization = 0.0;    ///< occupancyNs / windowNs (0 when unknown)
};

struct TimingReport {
  std::string plan;
  int rounds = 0;
  int eventsModeled = 0;
  /// Longest happens-before path over `rounds` template rounds, ns.
  double criticalPathNs = 0.0;
  /// Steady-state per-round increment: bound(rounds) - bound(rounds - 1).
  double perRoundNs = 0.0;
  /// Largest per-link serialization demand per round (the bandwidth term).
  double maxLinkDemandNs = 0.0;
  std::vector<PathStep> bottleneckPath;  ///< earliest event first
  std::vector<LinkLoad> hotspots;        ///< ranked by occupancy, capped
  int linksUsed = 0;                     ///< distinct torus links with traffic
  // Degraded re-pricing (downLinks non-empty):
  bool degradedAnalyzed = false;
  bool degradedStalled = false;  ///< some delivery unreachable: no bound
  double degradedCriticalPathNs = 0.0;
  double inflation = 1.0;  ///< degraded / healthy critical path
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
};

/// Wire size of one planned packet: header plus any payload too large for
/// the immediate slot (net::Packet::wireBytes with the plan's declared
/// per-packet payload; 0 declared bytes price the header-only minimum).
std::size_t plannedWireBytes(const PlannedWrite& w);

/// Compute the plan's static timing lower bound, hotspot table and (when
/// opts.downLinks is non-empty) degraded inflation.
TimingReport analyzeTiming(const CommPlan& plan, const TimingOptions& opts = {},
                           const net::LatencyConfig& lat = {});

}  // namespace anton::verify
