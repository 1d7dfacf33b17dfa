// Randomized plan-mutation coverage for the static verifier.
//
// Take one known-clean extracted plan (the dim-ordered all-reduce on a
// 2x2x2 torus: it has counted waits, multicast trees, and parity
// double-buffered receive regions — one instance of everything the checks
// reason about), apply one seeded single-operation mutation per iteration,
// and require the verifier to flag every single one. Three mutation kinds
// mirror the three check families: a counter-expectation count bump, a
// multicast tree edge removal, and a buffer-free reorder (collapsing the
// parity copy so the free no longer precedes the next round's write). The
// fourth breaks the plan's indexing: one row's phase index, or one range's
// end, set past its table — it must come back as a finding, never as a
// crash or an out-of-bounds read (the sanitizer build runs this test).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/allreduce.hpp"
#include "net/machine.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "verify/checks.hpp"
#include "verify/plan.hpp"

namespace anton::verify {
namespace {

CommPlan cleanAllReducePlan() {
  sim::Simulator sim;
  net::Machine machine(sim, {2, 2, 2});
  core::DimOrderedAllReduce reduce(machine);
  CommPlan p;
  p.name = "allreduce-2x2x2";
  p.shape = machine.shape();
  reduce.appendPlan(p, "");
  return p;
}

/// (multicast index, node) pairs whose table row forwards on at least one
/// link — the candidates for a tree-edge-removal mutation.
std::vector<std::pair<std::size_t, int>> forwardingRows(const CommPlan& p) {
  std::vector<std::pair<std::size_t, int>> rows;
  for (std::size_t mi = 0; mi < p.multicasts.size(); ++mi)
    for (const auto& [node, entry] : p.tree(p.multicasts[mi]).rows)
      if (entry.linkMask != 0) rows.push_back({mi, node});
  return rows;
}

TEST(VerifyMutation, EverySeededSingleOpMutationIsFlagged) {
  const CommPlan base = cleanAllReducePlan();
  ASSERT_TRUE(verifyPlan(base).ok());
  const auto rows = forwardingRows(base);
  ASSERT_FALSE(rows.empty());
  ASSERT_FALSE(base.expectations.empty());
  ASSERT_FALSE(base.buffers.empty());

  sim::Rng rng(20100816);  // fixed seed: the run is reproducible
  constexpr int kIterations = 36;
  int byKind[4] = {0, 0, 0, 0};
  for (int i = 0; i < kIterations; ++i) {
    CommPlan p = base;
    const int kind = int(rng.below(4));
    std::string what;
    switch (kind) {
      case 0: {  // count bump: one wait site expects extra packets
        CounterExpectation& e =
            p.expectations[rng.below(p.expectations.size())];
        e.perRound += 1 + rng.below(3);
        what = "count bump at '" + p.nameOf(e.site) + "'";
        break;
      }
      case 1: {  // tree edge removal: clear one set forwarding-link bit
        const auto [mi, node] = rows[rng.below(rows.size())];
        const MulticastPlanEntry& m = p.multicasts[mi];
        auto row = std::find_if(
            p.treeRows.begin() + m.rows.begin, p.treeRows.begin() + m.rows.end,
            [node](const TreeRow& r) { return r.first == node; });
        std::uint8_t& mask = row->second.linkMask;
        std::vector<int> bits;
        for (int b = 0; b < 8; ++b)
          if (mask & (1u << b)) bits.push_back(b);
        mask = std::uint8_t(mask & ~(1u << bits[rng.below(bits.size())]));
        what = "tree edge removed at node " + std::to_string(node) +
               " of pattern " +
               std::to_string(p.multicasts[mi].patternId);
        break;
      }
      case 2: {  // buffer-free reorder: the parity copy disappears, so the
                 // next round's write is no longer ordered after the free
        BufferPlan& b = p.buffers[rng.below(p.buffers.size())];
        b.copies = 1;
        what = "buffer-free reorder on '" + p.nameOf(b.name) + "'";
        break;
      }
      default: {  // an index or a range end past its table
        const auto past = [&](std::size_t size) {
          return std::uint32_t(size + 1 + rng.below(1000));
        };
        const auto phase = std::uint16_t(p.phases.size() + rng.below(100));
        switch (rng.below(6)) {
          case 0:
            p.writes[rng.below(p.writes.size())].phase = phase;
            what = "write phase index past the phase table";
            break;
          case 1:
            p.expectations[rng.below(p.expectations.size())].phase = phase;
            what = "wait phase index past the phase table";
            break;
          case 2:
            p.expectations[rng.below(p.expectations.size())].bySource.end =
                past(p.sources.size());
            what = "per-source range end past the sources";
            break;
          case 3:
            p.multicasts[rng.below(p.multicasts.size())].rows.end =
                past(p.treeRows.size());
            what = "tree row range end past the rows";
            break;
          case 4:
            p.multicasts[rng.below(p.multicasts.size())].dests.end =
                past(p.treeDests.size());
            what = "tree destination range end past the destinations";
            break;
          default:
            p.buffers[rng.below(p.buffers.size())].writers.end =
                past(p.writers.size());
            what = "buffer writer range end past the writers";
            break;
        }
        break;
      }
    }
    VerifyResult r = verifyPlan(p);
    EXPECT_FALSE(r.ok())
        << "seeded mutation " << i << " (" << what << ") was not flagged";
    if (kind == 3) {
      EXPECT_TRUE(std::any_of(r.violations.begin(), r.violations.end(),
                              [](const Violation& v) {
                                return v.check == "plan.index";
                              }))
          << "seeded mutation " << i << " (" << what << ")";
    }
    ++byKind[kind];
  }
  // The fixed seed must exercise all four mutation kinds, or the test is
  // weaker than it claims.
  for (int kind = 0; kind < 4; ++kind) EXPECT_GT(byKind[kind], 0) << kind;
}

}  // namespace
}  // namespace anton::verify
