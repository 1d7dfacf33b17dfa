// The static checks over a CommPlan (ISSUE 3 tentpole, deepened by ISSUE 4).
//
//   1. count consistency   — per sync counter, the packets the plan delivers
//                            equal the expected per-round increment, and the
//                            per-source breakdown matches when declared.
//   2. multicast           — trees are acyclic, dimension-ordered, reach
//                            exactly their declared destination set, and the
//                            plan fits the 256-patterns-per-node tables.
//                            Under declared down links the expansion is
//                            re-run degraded: lost destinations are repaired
//                            with rerouted unicast trees where possible and
//                            flagged as stalls where not.
//   3. buffer-reuse safety — a happens-before argument over the plan's
//                            event-granular graph (verify/events.hpp) that
//                            no writer can touch a receive buffer before the
//                            counter fire that frees it (SC10 §IV: correct
//                            reuse without barriers). Event granularity
//                            models intra-phase send/wait order, so a
//                            single-buffered all-reduce variant or a parity
//                            bug is caught even when phase order looks fine.
//   4. deadlock freedom    — every unicast route, including degraded-mode
//                            reroutes around down links, stays
//                            dimension-ordered; stalls are reported.
//   5. recovery coverage   — counted-wait sites not armed with
//                            recovery (core::recoverCounted) become lints.
//   6. static deadlock     — a cycle in the happens-before event graph
//                            (wait-before-send loops and friends) is
//                            reported with the full cycle in the diagnostic.
//
// A row whose index or range leaves its table is a "plan.index" error: the
// plan's views read it as empty or "?", so the checks above still run
// without leaving the plan's arrays.
//
// Structural problems (1-4, 6) are errors; coverage gaps and informational
// reroute audits are lints. verifyPlan never touches a live Machine.
#pragma once

#include <string>
#include <vector>

#include "verify/plan.hpp"

namespace anton::verify {

enum class Severity { kError, kLint };

const char* severityName(Severity s);

/// One finding. `check` is a stable machine-readable id:
///   "plan.index", "count", "count.by-source", "count.unwaited",
///   "count.unknown-pattern", "multicast.cycle", "multicast.empty-entry",
///   "multicast.dead-entry", "multicast.dests", "multicast.pattern-limit",
///   "multicast.conflict", "multicast.dim-order", "multicast.degraded",
///   "multicast.stalled", "buffer-reuse", "buffer-reuse.bad-phase",
///   "event.deadlock", "route.dim-order", "route.stalled", "route.degraded",
///   "recovery-coverage".
struct Violation {
  std::string check;
  Severity severity = Severity::kError;
  std::string site;    ///< expectation site / buffer / pattern label
  std::string detail;  ///< human-readable explanation
  int node = -1;       ///< representative node, -1 when aggregated/global
  int counterId = -1;
  int patternId = -1;
  int count = 1;  ///< identical findings coalesced into this record
};

struct VerifyOptions {
  /// Links assumed down while tracing unicast routes (check 4) and expanding
  /// multicast trees degraded (check 2). Empty means verify the healthy
  /// machine. (TorusLink itself lives in verify/plan.hpp.)
  std::vector<TorusLink> downLinks;
  /// Whether route-order problems (non-dimension-ordered degraded routes,
  /// stalled packets) are errors or informational lints.
  bool routeIssuesAreErrors = true;
  /// Cap on distinct buffers fully traced by the reachability engine; plans
  /// above the cap are sampled evenly and the result marked `sampled`.
  int maxBufferOwners = 96;
};

struct VerifyResult {
  std::vector<Violation> violations;  ///< Severity::kError findings
  std::vector<Violation> lints;       ///< Severity::kLint findings
  int buffersTotal = 0;
  int buffersChecked = 0;
  bool sampled = false;  ///< buffer check ran on a sample, not every owner
  int routesTraced = 0;
  /// Ordered operations the happens-before graph modeled (per round).
  int eventsModeled = 0;
  /// Multicast trees that lost destinations under the declared down links
  /// but could be repaired with rerouted unicast paths / could not.
  int multicastsRepaired = 0;
  int multicastsStalled = 0;

  bool ok() const { return violations.empty(); }
};

/// Static route trace mirroring Machine::routeFrom with the identity
/// dimension order (the deterministic order in-order resends use).
struct RouteTrace {
  std::vector<int> nodes;  ///< src first, dst last
  std::vector<int> dims;   ///< dimension taken at each hop
  bool dimOrdered = true;  ///< no dimension resumed after another intervened
  bool degraded = false;   ///< at least one hop avoided a down link
  bool stalled = false;    ///< every usable dimension was down at some hop
};

RouteTrace traceUnicastRoute(int srcNode, int dstNode,
                             const util::TorusShape& shape,
                             const std::vector<TorusLink>& downLinks);

/// Outcome of rebuilding a multicast tree around declared down links: every
/// declared destination is re-covered by the merged degraded unicast routes
/// from the source (the same first-healthy-dimension policy recovery resends
/// use). `ok()` means the repaired forwarding tables deliver the full
/// destination set; `stalledDests` lists destinations no degraded route can
/// reach at all — the fan-out stalls for the outage, exactly like the live
/// machine today.
struct TreeRepair {
  std::vector<TreeRow> rows;  ///< the repaired forwarding tables, by node
  std::vector<net::ClientAddr> lostDests;     ///< lost before repair
  std::vector<net::ClientAddr> stalledDests;  ///< unreachable even degraded
  int reroutedDests = 0;           ///< lost destinations re-covered
  int nonDimOrderedRoutes = 0;     ///< repair paths breaking dimension order
  bool ok() const { return stalledDests.empty(); }
  /// The repaired tree: `of`'s pattern, source and declared destinations
  /// over the rebuilt rows.
  TreeView repaired(const TreeView& of) const {
    return {of.patternId, of.srcNode, rows, of.dests};
  }
};

TreeRepair repairMulticastTree(const TreeView& tree,
                               const util::TorusShape& shape,
                               const std::vector<TorusLink>& downLinks);

VerifyResult verifyPlan(const CommPlan& plan, const VerifyOptions& opts = {});

}  // namespace anton::verify
