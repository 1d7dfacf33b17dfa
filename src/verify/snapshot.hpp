// Plan snapshots and structural diffs.
//
// A CommPlan is the reviewable artifact of the paper's static-communication
// premise: everything a step will put on the wire, decided before a cycle
// runs. Snapshots serialize that artifact to canonical strict JSON so plans
// can be committed as golden files, and diffPlans() compares two plans
// *structurally* — phases and their DAG, per-counter delivery counts,
// multicast tree edges, buffer lifetimes — so a code change that silently
// alters the communication shape shows up as a reviewable delta rather than
// a behavioural surprise (`verify_plans --diff`, and the golden-plan CI
// job).
#pragma once

#include <string>
#include <vector>

#include "verify/plan.hpp"

namespace anton::verify {

/// Canonical JSON for a plan: fixed key order, records in plan order, one
/// record per line — deterministic for byte-stable golden files, and still
/// strict JSON for any parser.
std::string planToJson(const CommPlan& plan);

/// Parse a snapshot back into a plan. Throws std::runtime_error with a
/// position-annotated message on malformed JSON or missing fields.
CommPlan planFromJson(const std::string& json);

/// Stable 64-bit FNV-1a key over the canonical snapshot bytes of a plan.
/// Identical across runs and platforms: the canonical JSON is byte-stable
/// (fixed key order, integer-only numbers, classic-locale formatting) and
/// FNV-1a consumes it byte-wise, so host endianness never enters the hash.
/// `verify_plans --plan-keys` prints it and golden_plan_test pins it.
std::uint64_t planKey(const CommPlan& plan);

/// planKey rendered as "0x" + 16 lowercase hex digits.
std::string planKeyHex(const CommPlan& plan);

/// One structural difference between two plans.
struct PlanDeltaEntry {
  std::string category;  ///< "shape", "phase", "write", "expectation",
                         ///< "multicast", "buffer"
  std::string site;      ///< the record key the difference is at
  std::string detail;    ///< human-readable description of the change
};

struct PlanDelta {
  std::vector<PlanDeltaEntry> entries;
  bool identical() const { return entries.empty(); }
};

/// Structural plan comparison, by names rather than table indices. Writes
/// are aggregated per (phase, source, target, counter) and compared by
/// total packets, payload bytes and delivery flags; expectations per (site,
/// client, counter) by per-round increment and recovery arming; multicasts
/// per (pattern, source) by forwarding-table rows and declared destination
/// set; buffers per (name, owner) by base, span, copy count, free phase and
/// writer set. A record on one side only, or whose facts differ, is one
/// entry naming both sides' facts. Plan names are not compared — two
/// differently-named plans with the same structure are identical.
PlanDelta diffPlans(const CommPlan& a, const CommPlan& b);

}  // namespace anton::verify
