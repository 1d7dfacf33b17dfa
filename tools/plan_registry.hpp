// Named shipped communication plans.
//
// One registry backs both the verify_plans CLI (auditing and `--diff` by
// plan name) and the golden-plan test (rebuilding each committed snapshot
// from source and diffing it structurally). Plan construction is
// deterministic — synthetic systems use fixed seeds — so a named plan only
// changes when the extractors or the configurations do, which is exactly
// the delta the golden files are meant to surface.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "md/anton_app.hpp"
#include "verify/plan.hpp"

namespace anton::tools {

/// The plans committed as golden snapshots under tests/golden_plans/.
std::vector<std::string> goldenPlanNames();

/// The quickstart MD configuration (recovery armed, quickstart physics).
/// THE shared config: the "quickstart-md" golden plan, the quickstart
/// example and the serve quickstart-md job family all build from it, so
/// there is exactly one place the configuration can drift.
md::AntonMdConfig quickstartMdConfig();

/// Extract the static communication plan of an MD app with the given
/// decomposition (shape/atoms) and configuration, built from the fixed
/// seed 2010, named `name`. The parametric form of the fixed
/// "quickstart-md"/"md-4x4x1" registry entries.
verify::CommPlan buildMdPlan(const std::string& name, util::TorusShape shape,
                             int atoms, const md::AntonMdConfig& cfg);

/// Fig. 5 ping-pong plan on the 512-node torus: node 0 (slice 0) pings each
/// client of `dests` once and each answers back. The pong is what makes the
/// receive slot reusable without a barrier, so the plan models both
/// directions. The named "fig5-ping" plan pings five corners with armed
/// waits; a serve fig5-ping job pings the destinations it measures.
verify::CommPlan buildFig5Plan(std::span<const net::ClientAddr> dests,
                               bool recoveryArmed);

/// Build a shipped plan by name. Fixed names: "quickstart-md", "md-4x4x1",
/// "table3-md-8x8x8", "fig5-ping", "fft-pair-2x2x2".
/// Parametric: "table2-allreduce-<X>x<Y>x<Z>", "cluster-allreduce-<N>".
/// Throws std::invalid_argument for anything else.
verify::CommPlan buildNamedPlan(const std::string& name);

/// One-corner one-way ping plan on `shape` (the Fig. 5 torus by default):
/// node 0 posts a single counted write which the corner waits for. The unit
/// plan the timing oracle prices statically and compares against a live
/// net::oneWayLatencyNs measurement of the same pair.
verify::CommPlan buildPingPlan(util::TorusCoord corner,
                               util::TorusShape shape = {8, 8, 8});

/// Pinned measured/static-bound slack of one timing-oracle plan family
/// (DESIGN.md §12). The live schedule must complete no earlier than the
/// static lower bound (ratio >= 1, the soundness half) and no slacker than
/// `maxRatio` (the tightness half): drift past the envelope means the
/// analyzer's pricing decoupled from the machine model and must be
/// re-derived, not re-pinned blindly.
struct SlackEnvelope {
  double maxRatio = 2.0;
};
SlackEnvelope timingSlackEnvelope(const std::string& family);

}  // namespace anton::tools
