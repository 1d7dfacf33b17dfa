// The static communication-plan verifier: a well-formed plan must pass
// cleanly, and each check must fire on the specific corruption it guards
// against — a miscounted counter, a cyclic multicast tree, a pattern id
// beyond the 256-entry tables, a premature buffer reuse, and a
// non-dimension-ordered degraded route. Also covers the plan extractors
// (all-reduce and full MD app) against the live subsystems they mirror.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/allreduce.hpp"
#include "md/anton_app.hpp"
#include "net/latency.hpp"
#include "net/machine.hpp"
#include "sim/simulator.hpp"
#include "verify/checks.hpp"
#include "verify/plan.hpp"
#include "verify/snapshot.hpp"

namespace anton::verify {
namespace {

using net::ClientAddr;
using net::kSlice0;

bool hasCheck(const std::vector<Violation>& vs, const std::string& check) {
  return std::any_of(vs.begin(), vs.end(),
                     [&](const Violation& v) { return v.check == check; });
}

const Violation* findCheck(const std::vector<Violation>& vs,
                           const std::string& check) {
  auto it = std::find_if(vs.begin(), vs.end(),
                         [&](const Violation& v) { return v.check == check; });
  return it == vs.end() ? nullptr : &*it;
}

/// Minimal well-formed plan: a counted ping 0 -> 1 answered by a counted
/// ack 1 -> 0, with the ping slot freed by the wait in "recv". The ack is
/// what makes the slot's reuse safe (the §4 argument in miniature): the
/// sender observes it before issuing the next round's ping.
CommPlan pingPlan() {
  CommPlan p;
  p.name = "ping";
  p.shape = {2, 1, 1};
  p.addPhaseEdge("send", "recv");
  p.addPhaseEdge("recv", "ackwait");
  p.addWrite("send", {.srcNode = 0, .inOrder = true, .counterId = 0,
                      .dst = {1, kSlice0}});
  p.addWrite("recv", {.srcNode = 1, .inOrder = true, .counterId = 1,
                      .dst = {0, kSlice0}});
  p.addExpectation("ping.data", "recv",
                   {.client = {1, kSlice0}, .counterId = 0, .perRound = 1,
                    .recoveryArmed = true},
                   {{{0, 1}}});
  p.addExpectation("ping.ack", "ackwait",
                   {.client = {0, kSlice0}, .counterId = 1, .perRound = 1,
                    .recoveryArmed = true},
                   {{{1, 1}}});
  const BufferWriter pinger{0, std::uint16_t(p.addPhase("send"))};
  p.addBuffer("ping.slot", "recv", {.client = {1, kSlice0}, .bytes = 32},
              {&pinger, 1});
  return p;
}

/// Replace expectation `ei`'s per-source breakdown.
void setBySource(CommPlan& p, std::size_t ei,
                 std::vector<SourceCount> bySource) {
  const auto first = std::uint32_t(p.sources.size());
  p.sources.insert(p.sources.end(), bySource.begin(), bySource.end());
  p.expectations[ei].bySource = {first, std::uint32_t(p.sources.size())};
}

// --- the clean plan --------------------------------------------------------

TEST(VerifyPlan, WellFormedPingPlanPasses) {
  VerifyResult r = verifyPlan(pingPlan());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.violations.empty());
  EXPECT_TRUE(r.lints.empty());
  EXPECT_EQ(r.routesTraced, 2);
  EXPECT_EQ(r.buffersTotal, 1);
  EXPECT_EQ(r.buffersChecked, 1);
  EXPECT_FALSE(r.sampled);
}

// --- check 1: count consistency -------------------------------------------

TEST(VerifyPlan, MiscountedCounterIsACountViolation) {
  CommPlan p = pingPlan();
  p.expectations[0].perRound = 2;  // the plan only delivers 1 packet/round
  setBySource(p, 0, {{0, 2}});
  VerifyResult r = verifyPlan(p);
  EXPECT_FALSE(r.ok());
  const Violation* v = findCheck(r.violations, "count");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->counterId, 0);
  EXPECT_EQ(v->node, 1);
  EXPECT_EQ(v->site, "ping.data");
  EXPECT_NE(v->detail.find("delivers 1"), std::string::npos);
  EXPECT_NE(v->detail.find("expects 2"), std::string::npos);
}

TEST(VerifyPlan, WrongPerSourceBreakdownIsFlaggedEvenWhenTotalsMatch) {
  CommPlan p = pingPlan();
  setBySource(p, 0, {{1, 1}});  // credits the wrong source node
  VerifyResult r = verifyPlan(p);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(hasCheck(r.violations, "count.by-source"));
  EXPECT_FALSE(hasCheck(r.violations, "count"));  // totals still agree
}

TEST(VerifyPlan, CounterWithNoWaitSiteIsALint) {
  CommPlan p = pingPlan();
  PlannedWrite stray = p.writes[0];
  stray.counterId = 5;  // bumps a counter nobody ever waits on
  p.writes.push_back(stray);
  VerifyResult r = verifyPlan(p);
  EXPECT_TRUE(r.ok()) << "an unwaited counter is a lint, not an error";
  const Violation* v = findCheck(r.lints, "count.unwaited");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->counterId, 5);
}

TEST(VerifyPlan, WriteReferencingUndeclaredPatternIsFlagged) {
  CommPlan p = pingPlan();
  p.writes[0].pattern = 9;  // no MulticastPlanEntry declares id 9
  VerifyResult r = verifyPlan(p);
  EXPECT_FALSE(r.ok());
  const Violation* v = findCheck(r.violations, "count.unknown-pattern");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->patternId, 9);
}

// --- check 2: multicast well-formedness -----------------------------------

/// A multicast tree outside a plan: its rows (any order) and declared
/// destinations.
struct Tree {
  int patternId = 0;
  std::vector<TreeRow> rows;
  std::vector<ClientAddr> dests;
  TreeView view() const { return {patternId, 0, rows, dests}; }
  net::MulticastEntry& at(int node) {
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const TreeRow& r) { return r.first == node; });
    if (it == rows.end()) it = rows.insert(it, {node, {}});
    return it->second;
  }
};

/// X+ chain pattern over `len` nodes of a {len,1,1} torus: each node
/// forwards along X+, the last one delivers to slice0.
Tree chainPattern(int id, int len) {
  Tree m{id, {}, {{len - 1, kSlice0}}};
  for (int n = 0; n + 1 < len; ++n)
    m.rows.push_back({n, {.clientMask = 0, .linkMask = 1u << 0}});
  m.rows.push_back({len - 1, {.clientMask = 1u << kSlice0, .linkMask = 0}});
  return m;
}

CommPlan multicastPlan(const Tree& m, util::TorusShape shape) {
  CommPlan p;
  p.name = "mcast";
  p.shape = shape;
  p.addWrite("fanout", {.srcNode = 0, .pattern = m.patternId});
  p.addTree(m.patternId, 0, m.rows, m.dests);
  return p;
}

TEST(VerifyPlan, CyclicMulticastTreeIsFlagged) {
  // Every node of a {4,1,1} ring forwards along X+: the walk wraps back to
  // the source. The delivery at node 2 still happens, but the tree is
  // cyclic (a packet replica chases its own tail on the real fabric).
  Tree m{7, {}, {{2, kSlice0}}};
  for (int n = 0; n < 4; ++n)
    m.rows.push_back(
        {n, {.clientMask = std::uint8_t(n == 2 ? 1u << kSlice0 : 0),
             .linkMask = 1u << 0}});
  TreeExpansion x = expandTree(m.view(), {4, 1, 1});
  EXPECT_TRUE(x.cycle);

  VerifyResult r = verifyPlan(multicastPlan(m, {4, 1, 1}));
  EXPECT_FALSE(r.ok());
  const Violation* v = findCheck(r.violations, "multicast.cycle");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->patternId, 7);
}

TEST(VerifyPlan, PatternIdBeyondTheTablesIsFlagged) {
  VerifyResult r = verifyPlan(
      multicastPlan(chainPattern(net::kMulticastPatterns, 2), {2, 1, 1}));
  EXPECT_FALSE(r.ok());
  const Violation* v = findCheck(r.violations, "multicast.pattern-limit");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->patternId, net::kMulticastPatterns);
}

TEST(VerifyPlan, UnreachedDeclaredDestinationIsFlagged) {
  Tree m = chainPattern(3, 2);
  m.dests.push_back({0, kSlice0});  // the tree never delivers here
  VerifyResult r = verifyPlan(multicastPlan(m, {2, 1, 1}));
  EXPECT_FALSE(r.ok());
  const Violation* v = findCheck(r.violations, "multicast.dests");
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->detail.find("never reached"), std::string::npos);
}

TEST(VerifyPlan, ReplicaIntoMissingTableEntryIsFlagged) {
  Tree m = chainPattern(3, 2);
  m.rows.pop_back();  // the forwarded replica finds no row at node 1
  VerifyResult r = verifyPlan(multicastPlan(m, {2, 1, 1}));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(hasCheck(r.violations, "multicast.empty-entry"));
}

TEST(VerifyPlan, NonDimOrderedFanoutPathIsFlagged) {
  // X+ then Y+ then X+ again on a {3,3,1} torus: the X run resumes after
  // Y intervened — forbidden on the dimension-ordered wormhole fabric.
  util::TorusShape shape{3, 3, 1};
  const int dest = util::torusIndex({2, 1, 0}, shape);
  Tree m{4,
         {{0, {.clientMask = 0, .linkMask = 1u << 0}},   // X+
          {1, {.clientMask = 0, .linkMask = 1u << 2}},   // Y+
          {util::torusIndex({1, 1, 0}, shape),
           {.clientMask = 0, .linkMask = 1u << 0}},      // X+
          {dest, {.clientMask = 1u << kSlice0, .linkMask = 0}}},
         {{dest, kSlice0}}};
  TreeExpansion x = expandTree(m.view(), shape);
  EXPECT_FALSE(x.dimOrdered);
  EXPECT_FALSE(x.cycle);

  VerifyResult r = verifyPlan(multicastPlan(m, shape));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(hasCheck(r.violations, "multicast.dim-order"));
}

TEST(VerifyPlan, DeadTableEntryIsALint) {
  Tree m = chainPattern(3, 2);
  m.at(0).linkMask = 0;                      // chain cut at source...
  m.at(0).clientMask = 1u << kSlice0;        // ...delivers locally
  m.dests.assign({ClientAddr{0, kSlice0}});  // intent matches
  VerifyResult r = verifyPlan(multicastPlan(m, {2, 1, 1}));
  EXPECT_TRUE(r.ok()) << "a dead table row wastes a slot but breaks nothing";
  const Violation* v = findCheck(r.lints, "multicast.dead-entry");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->node, 1);  // the orphaned row
}

// --- check 3: buffer-reuse safety -----------------------------------------

TEST(VerifyPlan, PrematureBufferReuseIsFlagged) {
  // Drop the ack: nothing orders the round r+1 ping after the round r wait,
  // so the sender can overwrite the slot before the receiver has read it.
  CommPlan p = pingPlan();
  p.writes.erase(p.writes.begin() + 1);
  p.expectations.erase(p.expectations.begin() + 1);
  VerifyResult r = verifyPlan(p);
  EXPECT_FALSE(r.ok());
  const Violation* v = findCheck(r.violations, "buffer-reuse");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->site, "ping.slot");
  EXPECT_NE(v->detail.find("before the copy is free"), std::string::npos);
}

TEST(VerifyPlan, DoubleBufferingAbsorbsOneRoundOfSlack) {
  // Same ack-free plan, but with two copies: round r+2 writes are ordered
  // after the round r free via the receiver's own round wrap... except the
  // sender still has no cross-node ordering, so even copies=2 must fail.
  CommPlan p = pingPlan();
  p.writes.erase(p.writes.begin() + 1);
  p.expectations.erase(p.expectations.begin() + 1);
  p.buffers[0].copies = 2;
  VerifyResult r = verifyPlan(p);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(hasCheck(r.violations, "buffer-reuse"));

  // Restoring the ack makes copies=1 — and a fortiori copies=2 — safe.
  CommPlan good = pingPlan();
  good.buffers[0].copies = 2;
  EXPECT_TRUE(verifyPlan(good).ok());
}

TEST(VerifyPlan, UnknownFreePhaseIsFlagged) {
  CommPlan p = pingPlan();
  p.buffers[0].freePhase = std::uint16_t(p.phases.size());  // no such phase
  VerifyResult r = verifyPlan(p);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(hasCheck(r.violations, "buffer-reuse.bad-phase"));
  EXPECT_TRUE(hasCheck(r.violations, "plan.index"));
}

TEST(VerifyPlan, BufferSamplingIsReportedHonestly) {
  CommPlan p = pingPlan();
  for (int i = 0; i < 9; ++i) {
    BufferPlan b = p.buffers[0];
    b.name = std::uint16_t(p.addName("ping.slot." + std::to_string(i)));
    p.buffers.push_back(b);
  }
  VerifyOptions opts;
  opts.maxBufferOwners = 4;
  VerifyResult r = verifyPlan(p, opts);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.sampled);
  EXPECT_EQ(r.buffersTotal, 10);
  EXPECT_LT(r.buffersChecked, r.buffersTotal);
  EXPECT_GT(r.buffersChecked, 0);
}

// --- check 4: deadlock freedom of unicast routes --------------------------

TEST(VerifyPlan, HealthyRoutesAreDimOrdered) {
  util::TorusShape shape{4, 4, 4};
  RouteTrace tr = traceUnicastRoute(0, util::torusIndex({2, 3, 1}, shape),
                                    shape, {});
  EXPECT_TRUE(tr.dimOrdered);
  EXPECT_FALSE(tr.degraded);
  EXPECT_FALSE(tr.stalled);
  // x: 2 hops, y: one hop the short way around the ring, z: 1 hop.
  EXPECT_EQ(tr.dims.size(), 4u);
  EXPECT_EQ(tr.nodes.back(), util::torusIndex({2, 3, 1}, shape));
}

TEST(VerifyPlan, RerouteAtTheSourceStaysDimOrdered) {
  util::TorusShape shape{4, 4, 1};
  RouteTrace tr = traceUnicastRoute(0, util::torusIndex({1, 1, 0}, shape),
                                    shape, {{0, 0, +1}});
  EXPECT_TRUE(tr.degraded);
  EXPECT_TRUE(tr.dimOrdered) << "y-then-x never resumes a finished dimension";
  EXPECT_FALSE(tr.stalled);
}

CommPlan routePlan(util::TorusShape shape, int dstNode) {
  CommPlan p;
  p.name = "route";
  p.shape = shape;
  p.addWrite("send", {.srcNode = 0, .counterId = net::kNoCounter,
                      .dst = {dstNode, kSlice0}});
  return p;
}

TEST(VerifyPlan, MidRouteRerouteBreakingDimOrderIsFlagged) {
  // 0 -> (2,1,0) with node 1's X+ link down: x, then y around the outage,
  // then x again — the resumed X run is the classic wormhole deadlock risk.
  util::TorusShape shape{4, 4, 1};
  VerifyOptions opts;
  opts.downLinks.push_back({util::torusIndex({1, 0, 0}, shape), 0, +1});
  CommPlan p = routePlan(shape, util::torusIndex({2, 1, 0}, shape));
  VerifyResult r = verifyPlan(p, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(hasCheck(r.violations, "route.dim-order"));

  // The same finding demotes to a lint when route issues are advisory.
  opts.routeIssuesAreErrors = false;
  VerifyResult lint = verifyPlan(p, opts);
  EXPECT_TRUE(lint.ok());
  EXPECT_TRUE(hasCheck(lint.lints, "route.dim-order"));
}

TEST(VerifyPlan, AxisAlignedRouteThroughDeadLinkStalls) {
  // 0 -> (2,0,0) with node 1's X+ down: at node 1 the only productive
  // dimension is dead, so the packet stalls at the adapter.
  util::TorusShape shape{4, 4, 1};
  VerifyOptions opts;
  opts.downLinks.push_back({util::torusIndex({1, 0, 0}, shape), 0, +1});
  VerifyResult r =
      verifyPlan(routePlan(shape, util::torusIndex({2, 0, 0}, shape)), opts);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(hasCheck(r.violations, "route.stalled"));
}

TEST(VerifyPlan, CleanRerouteIsADegradedLint) {
  util::TorusShape shape{4, 4, 1};
  VerifyOptions opts;
  opts.downLinks.push_back({0, 0, +1});
  VerifyResult r =
      verifyPlan(routePlan(shape, util::torusIndex({1, 1, 0}, shape)), opts);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(hasCheck(r.lints, "route.degraded"));
}

// --- check 5: recovery coverage -------------------------------------------

TEST(VerifyPlan, UnarmedCountedWaitIsARecoveryLint) {
  CommPlan p = pingPlan();
  p.expectations[0].recoveryArmed = false;
  VerifyResult r = verifyPlan(p);
  EXPECT_TRUE(r.ok()) << "coverage gaps are lints, not errors";
  const Violation* v = findCheck(r.lints, "recovery-coverage");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->site, "ping.data");
  EXPECT_EQ(v->counterId, 0);
}

// --- plan extractors against the live subsystems --------------------------

TEST(VerifyPlan, AllReducePlanVerifiesCleanly) {
  sim::Simulator sim;
  net::Machine machine(sim, {4, 4, 4});
  core::DimOrderedAllReduce ar(machine);
  CommPlan p;
  p.name = "allreduce";
  p.shape = machine.shape();
  ar.appendPlan(p, "");
  VerifyResult r = verifyPlan(p);
  EXPECT_TRUE(r.ok()) << (r.violations.empty()
                              ? std::string()
                              : r.violations.front().check + ": " +
                                    r.violations.front().detail);
  // The live all-reduce uses plain counter waits: every dimension's wait
  // site must surface as a recovery-coverage gap.
  EXPECT_TRUE(hasCheck(r.lints, "recovery-coverage"));
}

TEST(VerifyPlan, ExtractedMdPlanVerifiesCleanly) {
  md::SyntheticSystemParams sp;
  sp.targetAtoms = 1536;
  sp.temperature = 0.8;
  sp.seed = 11;
  md::MDSystem sys = md::buildSyntheticSystem(sp);
  md::AntonMdConfig cfg;
  cfg.force.cutoff = 2.2;
  cfg.ewald.grid = 16;
  cfg.homeBoxMarginFrac = 0.10;
  cfg.thermostatTau = 0.0;
  cfg.recoveryTimeoutUs = 5000.0;  // arm recovery on the wait sites

  sim::Simulator sim;
  net::Machine machine(sim, {4, 4, 4});
  md::AntonMdApp app(machine, sys, cfg);
  CommPlan p = app.extractCommPlan();

  EXPECT_EQ(p.shape.size(), 64);
  EXPECT_FALSE(p.writes.empty());
  EXPECT_FALSE(p.expectations.empty());
  EXPECT_FALSE(p.multicasts.empty());
  EXPECT_FALSE(p.buffers.empty());

  VerifyResult r = verifyPlan(p);
  EXPECT_TRUE(r.ok()) << (r.violations.empty()
                              ? std::string()
                              : r.violations.front().check + ": " +
                                    r.violations.front().detail);
  // With recovery on, every counted wait of the superstep is armed —
  // position/bond/force, the grid spread, the potential halo, the FFT
  // passes, the all-reduce and the migration flush. The recovery-coverage
  // lint (now gating in verify_plans) must find nothing.
  const Violation* gap = findCheck(r.lints, "recovery-coverage");
  EXPECT_EQ(gap, nullptr)
      << (gap ? gap->site + ": " + gap->detail : std::string());
}

// Each corruption of the extracted MD plan must be caught — the end-to-end
// guarantee that the verifier would catch a real planner regression.
TEST(VerifyPlan, CorruptedMdPlanIsCaught) {
  md::SyntheticSystemParams sp;
  sp.targetAtoms = 1536;
  sp.temperature = 0.8;
  sp.seed = 11;
  md::MDSystem sys = md::buildSyntheticSystem(sp);
  md::AntonMdConfig cfg;
  cfg.force.cutoff = 2.2;
  cfg.ewald.grid = 16;
  cfg.homeBoxMarginFrac = 0.10;
  cfg.thermostatTau = 0.0;

  sim::Simulator sim;
  net::Machine machine(sim, {4, 4, 4});
  md::AntonMdApp app(machine, sys, cfg);
  const CommPlan base = app.extractCommPlan();
  ASSERT_TRUE(verifyPlan(base).ok());

  CommPlan off = base;  // one packet short on one wait site
  off.expectations[0].perRound += 1;
  EXPECT_TRUE(hasCheck(verifyPlan(off).violations, "count"));

  CommPlan cut = base;  // sever one multicast tree mid-walk: empty a row
  for (const MulticastPlanEntry& m : cut.multicasts)
    if (m.rows.end - m.rows.begin > 2) {
      TreeRow* row = &cut.treeRows[m.rows.begin];
      if (row->first == m.srcNode) ++row;
      row->second = {};
      break;
    }
  VerifyResult rc = verifyPlan(cut);
  EXPECT_FALSE(rc.ok());
}

// --- checks 3+6: the event-granular happens-before graph -------------------

TEST(VerifyEvents, SingleBufferedAllReduceIsFlaggedAtEventLevel) {
  sim::Simulator sim;
  net::Machine machine(sim, {2, 2, 2});
  core::DimOrderedAllReduce ar(machine);
  CommPlan p;
  p.name = "allreduce";
  p.shape = machine.shape();
  ar.appendPlan(p, "");
  ASSERT_TRUE(verifyPlan(p).ok()) << "parity double buffering is safe";

  // Phase order alone cannot distinguish this variant from the shipped one:
  // the all-reduce sends *before* waiting inside each dimension phase, so
  // with a single receive copy the neighbour's round-r+1 partial can land
  // while round r is still being read. Only the intra-phase event order
  // exposes the race.
  for (BufferPlan& b : p.buffers) b.copies = 1;
  VerifyResult r = verifyPlan(p);
  EXPECT_FALSE(r.ok());
  const Violation* v = findCheck(r.violations, "buffer-reuse");
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->detail.find("no happens-before path"), std::string::npos)
      << v->detail;
  EXPECT_NE(v->detail.find("before the copy is free"), std::string::npos)
      << v->detail;
  EXPECT_GT(r.eventsModeled, 0);
}

TEST(VerifyEvents, WaitBeforeSendCycleIsAStaticDeadlock) {
  // Two nodes exchange one counted packet in the same phase, but each node
  // posts its wait *before* its send: a textbook head-of-line deadlock the
  // phase DAG alone can never see.
  CommPlan p;
  p.name = "exchange";
  p.shape = {2, 1, 1};
  for (int n = 0; n < 2; ++n) {
    p.addWrite("exchange", {.srcNode = n, .seq = 1,  // send after the wait
                            .counterId = 0, .dst = {1 - n, kSlice0}});
    p.addExpectation("exchange.recv", "exchange",
                     {.client = {n, kSlice0}, .counterId = 0, .perRound = 1,
                      .recoveryArmed = true, .seq = 0},  // wait first
                     {{{1 - n, 1}}});
  }
  VerifyResult r = verifyPlan(p);
  const Violation* v = findCheck(r.violations, "event.deadlock");
  ASSERT_NE(v, nullptr);
  // The diagnostic carries the whole cycle: both the wait and the send it
  // depends on, joined hop by hop.
  EXPECT_NE(v->detail.find(" -> "), std::string::npos) << v->detail;
  EXPECT_NE(v->detail.find("wait"), std::string::npos) << v->detail;
  EXPECT_NE(v->detail.find("send"), std::string::npos) << v->detail;
  EXPECT_NE(v->detail.find("never make progress"), std::string::npos)
      << v->detail;

  // Send-first (what the live exchange actually does) breaks the cycle.
  for (PlannedWrite& w : p.writes) w.seq = 0;
  for (CounterExpectation& e : p.expectations) e.seq = 1;
  EXPECT_FALSE(hasCheck(verifyPlan(p).violations, "event.deadlock"));
}

// --- check 2 degraded: multicast tree expansion under down links ------------

TEST(VerifyDegraded, CutMulticastTreeIsRepairedByRerouting) {
  // A two-hop dimension-ordered tree on a 4x4 sheet: 0 -> +x -> +y -> dest.
  // Taking node 0's +x link down severs the whole tree, but the degraded
  // unicast route (+y first, then +x) re-covers the destination.
  CommPlan p;
  p.name = "mc";
  p.shape = {4, 4, 1};
  p.addPhaseEdge("fanout", "sink");
  const int hop = util::torusIndex({1, 0, 0}, p.shape);
  const int dest = util::torusIndex({1, 1, 0}, p.shape);

  Tree m{0,
         {{0, {.linkMask = std::uint8_t(
                   1u << net::RingLayout::adapterIndex(0, +1))}},
          {hop, {.linkMask = std::uint8_t(
                     1u << net::RingLayout::adapterIndex(1, +1))}},
          {dest, {.clientMask = 1u << kSlice0}}},
         {{dest, kSlice0}}};
  p.addTree(0, 0, m.rows, m.dests);
  p.addWrite("fanout", {.srcNode = 0, .counterId = 0, .pattern = 0});
  p.addExpectation("mc.recv", "sink",
                   {.client = {dest, kSlice0}, .counterId = 0,
                    .perRound = 1, .recoveryArmed = true},
                   {});
  ASSERT_TRUE(verifyPlan(p).ok());

  VerifyOptions opts;
  opts.downLinks.push_back({0, 0, +1});
  VerifyResult r = verifyPlan(p, opts);
  EXPECT_TRUE(r.ok()) << "a repairable outage must stay a lint";
  EXPECT_EQ(r.multicastsRepaired, 1);
  EXPECT_EQ(r.multicastsStalled, 0);
  const Violation* v = findCheck(r.lints, "multicast.degraded");
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->detail.find("repaired by rerouting"), std::string::npos)
      << v->detail;

  // The repair itself must round-trip: rebuilt tables reach the declared
  // destination under the same outage.
  TreeRepair repair = repairMulticastTree(m.view(), p.shape, opts.downLinks);
  EXPECT_TRUE(repair.ok());
  EXPECT_EQ(repair.reroutedDests, 1);
  TreeExpansion degraded =
      expandTree(repair.repaired(m.view()), p.shape, opts.downLinks);
  ASSERT_EQ(degraded.reached.size(), 1u);
  EXPECT_EQ(degraded.reached[0], (ClientAddr{dest, kSlice0}));
}

TEST(VerifyDegraded, UnroutableOutageIsReportedAsAStall) {
  // On a 4x1x1 line there is no second dimension to reroute through: a +x
  // outage at the source stalls the whole chain, repaired or not.
  CommPlan p;
  p.name = "line";
  p.shape = {4, 1, 1};
  p.addPhaseEdge("fanout", "sink");
  Tree m;
  for (int n = 0; n < 3; ++n)
    m.at(n).linkMask = 1u << net::RingLayout::adapterIndex(0, +1);
  for (int n = 1; n < 4; ++n) {
    m.at(n).clientMask = 1u << kSlice0;
    m.dests.push_back({n, kSlice0});
    p.addExpectation("line.recv", "sink",
                     {.client = {n, kSlice0}, .counterId = 0, .perRound = 1,
                      .recoveryArmed = true},
                     {});
  }
  p.addTree(0, 0, m.rows, m.dests);
  p.addWrite("fanout", {.srcNode = 0, .counterId = 0, .pattern = 0});
  ASSERT_TRUE(verifyPlan(p).ok());

  VerifyOptions opts;
  opts.downLinks.push_back({0, 0, +1});
  opts.routeIssuesAreErrors = false;  // audit mode
  VerifyResult r = verifyPlan(p, opts);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.multicastsStalled, 1);
  const Violation* v = findCheck(r.lints, "multicast.stalled");
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->detail.find("stalls"), std::string::npos) << v->detail;

  opts.routeIssuesAreErrors = true;  // and as a hard failure when asked
  EXPECT_TRUE(hasCheck(verifyPlan(p, opts).violations, "multicast.stalled"));
}

// --- snapshots and structural diff ------------------------------------------

TEST(PlanSnapshot, RoundTripsThroughCanonicalJson) {
  CommPlan p = pingPlan();
  const std::string json = planToJson(p);
  CommPlan q = planFromJson(json);
  EXPECT_TRUE(diffPlans(p, q).identical());
  EXPECT_EQ(planToJson(q), json) << "canonical form must be byte-stable";
  EXPECT_EQ(q.name, p.name);
  EXPECT_TRUE(q.shape == p.shape);
  EXPECT_EQ(q.phases, p.phases);
  EXPECT_EQ(q.writes.size(), p.writes.size());
  EXPECT_EQ(q.expectations.size(), p.expectations.size());
  EXPECT_EQ(q.buffers.size(), p.buffers.size());
}

TEST(PlanSnapshot, RichPlanWithMulticastsRoundTrips) {
  sim::Simulator sim;
  net::Machine machine(sim, {2, 2, 2});
  core::DimOrderedAllReduce ar(machine);
  CommPlan p;
  p.name = "allreduce";
  p.shape = machine.shape();
  ar.appendPlan(p, "");
  ASSERT_FALSE(p.multicasts.empty());
  CommPlan q = planFromJson(planToJson(p));
  EXPECT_TRUE(diffPlans(p, q).identical());
  EXPECT_EQ(planToJson(q), planToJson(p));
}

TEST(PlanSnapshot, MalformedJsonIsRejectedWithPosition) {
  EXPECT_THROW(planFromJson("{"), std::runtime_error);
  EXPECT_THROW(planFromJson("[]"), std::runtime_error);
  EXPECT_THROW(planFromJson("{\"name\": \"x\"}"), std::runtime_error);

  // A record naming a phase the plan does not list.
  std::string json = planToJson(pingPlan());
  const std::string phase = "\"phase\": \"recv\"";
  json.replace(json.find(phase), phase.size(), "\"phase\": \"nowhere\"");
  EXPECT_THROW(planFromJson(json), std::runtime_error);
}

TEST(PlanDiff, NamesDoNotCountButStructureDoes) {
  CommPlan a = pingPlan();
  CommPlan b = pingPlan();
  b.name = "renamed";
  EXPECT_TRUE(diffPlans(a, b).identical());
}

TEST(PlanDiff, StructuralDeltasCarryTheirCategory) {
  const CommPlan base = pingPlan();
  auto hasCategory = [](const PlanDelta& d, const std::string& cat) {
    return std::any_of(
        d.entries.begin(), d.entries.end(),
        [&](const PlanDeltaEntry& e) { return e.category == cat; });
  };

  CommPlan m = base;  // one extra planned packet on the ping
  m.writes[0].packets += 2;
  PlanDelta d = diffPlans(base, m);
  ASSERT_FALSE(d.identical());
  EXPECT_TRUE(hasCategory(d, "write"));

  m = base;  // a wait site expecting a different increment
  m.expectations[0].perRound += 1;
  d = diffPlans(base, m);
  ASSERT_FALSE(d.identical());
  EXPECT_TRUE(hasCategory(d, "expectation"));

  m = base;  // double-buffering a receive region changes its lifetime
  m.buffers[0].copies = 2;
  d = diffPlans(base, m);
  ASSERT_FALSE(d.identical());
  EXPECT_TRUE(hasCategory(d, "buffer"));

  m = base;  // a new phase shows up in the program DAG
  m.addPhaseEdge("ackwait", "drain");
  d = diffPlans(base, m);
  ASSERT_FALSE(d.identical());
  EXPECT_TRUE(hasCategory(d, "phase"));
}

}  // namespace
}  // namespace anton::verify
