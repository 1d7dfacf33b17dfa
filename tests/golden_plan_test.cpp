// Golden communication-plan snapshots.
//
// Each file under tests/golden_plans/ is the canonical JSON snapshot of one
// named shipped plan (tools/plan_registry.hpp). Rebuilding the plan from
// source and structurally diffing it against the committed file turns any
// silent change to the communication shape — a packet count, a tree edge, a
// buffer lifetime — into a reviewable delta. Regenerate intentionally with
//   ./build/tools/verify_plans --dump-plans tests/golden_plans
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "plan_registry.hpp"
#include "verify/checks.hpp"
#include "verify/snapshot.hpp"

namespace anton::verify {
namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(GoldenPlans, CommittedSnapshotsMatchTheExtractors) {
  for (const std::string& name : tools::goldenPlanNames()) {
    SCOPED_TRACE(name);
    const std::string path =
        std::string(GOLDEN_PLANS_DIR) + "/" + name + ".json";
    const std::string json = readFile(path);
    ASSERT_FALSE(json.empty()) << "missing golden snapshot: " << path;

    const CommPlan golden = planFromJson(json);
    const CommPlan built = tools::buildNamedPlan(name);
    const PlanDelta delta = diffPlans(golden, built);
    for (const PlanDeltaEntry& e : delta.entries)
      ADD_FAILURE() << e.category << " | " << e.site << " | " << e.detail;
    EXPECT_TRUE(delta.identical())
        << "extractors drifted from the committed snapshot; if intentional, "
           "regenerate with verify_plans --dump-plans tests/golden_plans";

    // The committed bytes are the canonical serialization, and the plan they
    // describe still passes the verifier.
    EXPECT_EQ(planToJson(golden), json);
    EXPECT_TRUE(verifyPlan(built).ok());
  }
}

// Pinned plan keys: verify::planKey is the stable identity of a plan (FNV-1a
// over its canonical snapshot bytes), so a drifting key is a change to the
// communication shape of a shipped plan. Any intentional plan change must
// update the constant here — the new value comes from
// `verify_plans --plan-keys`.
TEST(GoldenPlans, PlanKeysArePinned) {
  const std::map<std::string, std::string> pinned = {
      {"fig5-ping", "0x63269775621c1e80"},
      {"table2-allreduce-2x2x2", "0x619e4b59a2583b5b"},
      {"cluster-allreduce-16", "0xfa4e16a976b945bb"},
      {"fft-pair-2x2x2", "0xc15a6eea61224b87"},
      {"quickstart-md", "0x3944bcf94feb55ec"},
      {"md-4x4x1", "0x50d98e90ae36a640"},
  };
  std::set<std::string> names;
  for (const std::string& name : tools::goldenPlanNames()) {
    SCOPED_TRACE(name);
    names.insert(name);
    auto it = pinned.find(name);
    ASSERT_NE(it, pinned.end())
        << "new golden plan without a pinned key; add its "
           "`verify_plans --plan-keys` value here";
    EXPECT_EQ(planKeyHex(tools::buildNamedPlan(name)), it->second);
  }
  EXPECT_EQ(names.size(), pinned.size()) << "stale pinned key entry";
}

// The half-shell ablation's plans: the import and export lists of both
// rules feed the same extractor unchanged in shape.
TEST(GoldenPlans, HalfShellMdPlanKeysArePinned) {
  md::AntonMdConfig cfg = tools::quickstartMdConfig();
  cfg.importMethod = md::ImportMethod::kHalfShell;
  EXPECT_EQ(
      planKeyHex(tools::buildMdPlan("quickstart-md", {4, 4, 4}, 1536, cfg)),
      "0x1d670b1ba0f20dd9");
  EXPECT_EQ(planKeyHex(tools::buildMdPlan("md-4x4x1", {4, 4, 1}, 1536, cfg)),
            "0xcff0e4273b154d3b");
}

// planKey must be a pure function of the canonical bytes: rebuilding the
// plan and round-tripping it through the snapshot serializer both yield the
// same key.
TEST(GoldenPlans, PlanKeyIsStableAcrossRebuildAndRoundTrip) {
  for (const std::string& name : tools::goldenPlanNames()) {
    SCOPED_TRACE(name);
    const CommPlan a = tools::buildNamedPlan(name);
    const CommPlan b = tools::buildNamedPlan(name);
    EXPECT_EQ(planKey(a), planKey(b));
    EXPECT_EQ(planKey(planFromJson(planToJson(a))), planKey(a));
  }
}

}  // namespace
}  // namespace anton::verify
