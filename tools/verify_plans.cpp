// verify_plans: static communication-plan verifier CLI (ISSUE 3 tentpole,
// deepened by ISSUE 4's event-granular happens-before checks).
//
// Extracts the static communication graph of each shipped configuration —
// the quickstart MD run, the Fig. 5 ping topology, the Table 2 all-reduce
// tori, the Table 3 512-node MD system, the FFT pair, and the
// cluster-baseline all-reduce — WITHOUT running the simulator, and checks
// count consistency, multicast well-formedness (healthy and under declared
// down links, with tree repair), event-level buffer-reuse safety, static
// deadlock freedom, route dimension order, and recovery coverage
// (src/verify/checks.hpp).
//
// Output is strict JSON lines on stdout, mirrored to VERIFY_plans.json:
//   {"kind":"plan", ...}       one per verified plan
//   {"kind":"violation", ...}  each Severity::kError finding
//   {"kind":"lint", ...}       each Severity::kLint finding
//   {"kind":"selftest", ...}   each seeded known-bad plan (must fire)
//   {"kind":"summary", ...}    totals; "ok" decides the exit code
//
// Exit status: 0 when every shipped plan is violation-free AND free of
// recovery-coverage lints (every counted wait must have a recovery story,
// ISSUE 5), and every seeded bad plan produced its expected finding; 1
// otherwise. Other lints stay advisory.
//
// Modes and flags:
//   --fast              skip the 512-node Table 3 extraction
//   --selftest-only     run only the seeded bad plans
//   --dump-plans DIR    write each golden plan's JSON snapshot into DIR
//   --diff A B          structural plan delta. A and B are plan names
//                       (tools/plan_registry.hpp) or snapshot files; prints
//                       one line per difference. Exit 0 when identical, 1
//                       when the plans differ, 2 on error.
//   --timing            static critical-path & link-occupancy audit: price
//                       every golden plan's happens-before graph with the
//                       calibrated latency model — critical-path lower
//                       bound with the bottleneck named event-by-event,
//                       per-link x per-phase occupancy hotspots with the
//                       timing.contention check, and degraded-mode
//                       inflation — plus seeded-bad plans that must fire
//                       timing.contention and timing.degraded-blowup.
//                       Output mirrors to VERIFY_timing.json (committed
//                       golden file).
//   --timing-oracle     measured-latency oracle: run the live ping / MD /
//                       all-reduce schedules once each and pin
//                       measured completion >= static lower bound with the
//                       measured/bound slack inside each family's pinned
//                       envelope; a seeded inflated bound must be refuted.
//                       Output mirrors to VERIFY_timing_oracle.json.
//   --update-goldens [DIR]  regenerate the golden plan snapshots AND the
//                       committed timing report (VERIFY_timing.json) in DIR
//                       (default tests/golden_plans) in one step.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/allreduce.hpp"
#include "net/latency.hpp"
#include "net/probe.hpp"
#include "plan_registry.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "verify/checks.hpp"
#include "verify/snapshot.hpp"
#include "verify/timing.hpp"

using anton::bench::JsonReporter;

namespace {

namespace verify = anton::verify;
namespace net = anton::net;
namespace core = anton::core;
namespace sim = anton::sim;
namespace tools = anton::tools;
namespace json = anton::util::json;

struct Emitter {
  JsonReporter file;
  explicit Emitter(const std::string& path = "VERIFY_plans.json")
      : file("verify_plans", path) {}
  void line(const std::string& l) {
    std::cout << l << '\n';
    file.raw(l);
  }
};

struct Totals {
  int plans = 0;
  int violations = 0;
  int lints = 0;
  int recoveryLints = 0;  ///< recovery-coverage lints gate like violations
  int selftests = 0;
  int selftestFailures = 0;
};

std::string shapeStr(const anton::util::TorusShape& s) {
  return std::to_string(s.extent(0)) + "x" + std::to_string(s.extent(1)) +
         "x" + std::to_string(s.extent(2));
}

std::string findingLine(const std::string& plan, const verify::Violation& v) {
  std::ostringstream os;
  os << "{\"kind\":"
     << json::quoted(v.severity == verify::Severity::kError ? "violation"
                                                            : "lint")
     << ",\"plan\":" << json::quoted(plan)
     << ",\"check\":" << json::quoted(v.check)
     << ",\"site\":" << json::quoted(v.site) << ",\"node\":" << v.node
     << ",\"counter\":" << v.counterId << ",\"pattern\":" << v.patternId
     << ",\"count\":" << v.count
     << ",\"detail\":" << json::quoted(v.detail) << "}";
  return os.str();
}

verify::VerifyResult runPlan(Emitter& em, Totals& t,
                             const verify::CommPlan& plan,
                             const verify::VerifyOptions& opts = {}) {
  verify::VerifyResult r = verify::verifyPlan(plan, opts);
  ++t.plans;
  t.violations += int(r.violations.size());
  t.lints += int(r.lints.size());
  // Every shipped counted wait now has a recovery story (ISSUE 5), so an
  // unarmed wait is a regression, not advice: it gates the exit code.
  for (const verify::Violation& v : r.lints)
    if (v.check == "recovery-coverage") ++t.recoveryLints;
  std::ostringstream os;
  os << "{\"kind\":\"plan\",\"plan\":" << json::quoted(plan.name)
     << ",\"shape\":" << json::quoted(shapeStr(plan.shape))
     << ",\"phases\":" << plan.phases.size()
     << ",\"writes\":" << plan.writes.size()
     << ",\"expectations\":" << plan.expectations.size()
     << ",\"multicasts\":" << plan.multicasts.size()
     << ",\"buffers\":" << r.buffersTotal
     << ",\"buffersChecked\":" << r.buffersChecked
     << ",\"sampled\":" << (r.sampled ? "true" : "false")
     << ",\"routesTraced\":" << r.routesTraced
     << ",\"events\":" << r.eventsModeled
     << ",\"multicastsRepaired\":" << r.multicastsRepaired
     << ",\"multicastsStalled\":" << r.multicastsStalled
     << ",\"violations\":" << r.violations.size()
     << ",\"lints\":" << r.lints.size()
     << ",\"ok\":" << (r.ok() ? "true" : "false") << "}";
  em.line(os.str());
  for (const verify::Violation& v : r.violations)
    em.line(findingLine(plan.name, v));
  for (const verify::Violation& v : r.lints)
    em.line(findingLine(plan.name, v));
  return r;
}

// --- seeded known-bad plans (each must fire its specific check) -------------

struct SelfTest {
  std::string name;
  std::string expect;  ///< check id that must appear among the violations
  verify::CommPlan plan;
  verify::VerifyOptions opts;
};

std::vector<SelfTest> selfTests() {
  std::vector<SelfTest> tests;
  {
    SelfTest t;  // wait expects 2 packets/round, plan delivers 1
    t.name = "bad-count";
    t.expect = "count";
    t.plan.name = t.name;
    t.plan.shape = {2, 1, 1};
    t.plan.addPhaseEdge("send", "recv");
    t.plan.addWrite("send",
                    {.srcNode = 0, .counterId = 0, .dst = {1, net::kSlice0}});
    t.plan.addExpectation("recv", "recv",
                          {.client = {1, net::kSlice0}, .counterId = 0,
                           .perRound = 2, .recoveryArmed = true},
                          {});
    tests.push_back(std::move(t));
  }
  {
    SelfTest t;  // +x links all the way around a 4-ring: the walk re-enters
    t.name = "bad-multicast-cycle";
    t.expect = "multicast.cycle";
    t.plan.name = t.name;
    t.plan.shape = {4, 1, 1};
    const auto xPlus =
        std::uint8_t(1u << net::RingLayout::adapterIndex(0, +1));
    std::vector<verify::TreeRow> rows;
    for (int n = 0; n < 4; ++n)
      rows.push_back(
          {n, {.clientMask = std::uint8_t(n == 2 ? 1u << net::kSlice0 : 0u),
               .linkMask = xPlus}});
    const net::ClientAddr dest{2, net::kSlice0};
    t.plan.addTree(7, 0, rows, {&dest, 1});
    tests.push_back(std::move(t));
  }
  {
    SelfTest t;  // pattern id beyond the 256-entry per-node tables
    t.name = "bad-pattern-limit";
    t.expect = "multicast.pattern-limit";
    t.plan.name = t.name;
    t.plan.shape = {2, 1, 1};
    const verify::TreeRow row{0, {.clientMask = 1u << net::kSlice0}};
    const net::ClientAddr dest{0, net::kSlice0};
    t.plan.addTree(net::kMulticastPatterns,  // first invalid id
                   0, {&row, 1}, {&dest, 1});
    tests.push_back(std::move(t));
  }
  {
    SelfTest t;  // no return traffic: nothing orders the next-round write
    t.name = "bad-buffer-reuse";
    t.expect = "buffer-reuse";
    t.plan.name = t.name;
    t.plan.shape = {2, 1, 1};
    t.plan.addPhaseEdge("send", "recv");
    t.plan.addWrite("send",
                    {.srcNode = 0, .counterId = 0, .dst = {1, net::kSlice0}});
    t.plan.addExpectation("recv", "recv",
                          {.client = {1, net::kSlice0}, .counterId = 0,
                           .perRound = 1, .recoveryArmed = true},
                          {});
    const verify::BufferWriter sender{0,
                                      std::uint16_t(t.plan.addPhase("send"))};
    t.plan.addBuffer("slot", "recv", {.client = {1, net::kSlice0}, .bytes = 32},
                     {&sender, 1});
    tests.push_back(std::move(t));
  }
  {
    SelfTest t;  // reroute around a mid-path outage resumes x after y: x,y,x
    t.name = "bad-route-dim-order";
    t.expect = "route.dim-order";
    t.plan.name = t.name;
    t.plan.shape = {4, 4, 1};
    t.plan.addPhaseEdge("send", "recv");
    const net::ClientAddr dst{anton::util::torusIndex({2, 1, 0}, t.plan.shape),
                              net::kSlice0};
    t.plan.addWrite("send", {.srcNode = 0, .counterId = 0, .dst = dst});
    t.plan.addExpectation("recv", "recv",
                          {.client = dst, .counterId = 0, .perRound = 1,
                           .recoveryArmed = true},
                          {});
    t.opts.downLinks = {{1, 0, +1}};  // +x out of node (1,0,0) is down
    t.opts.routeIssuesAreErrors = true;
    tests.push_back(std::move(t));
  }
  {
    // The dim-ordered all-reduce with every receive slot single-buffered.
    // Legal under phase-atomic checking (each phase's wait "covers" the
    // frees), but the event graph sees that each node multicasts *before*
    // its wait, so nothing orders a peer's next-round send after this
    // node's read — the race the paper's parity double-buffering exists to
    // prevent.
    SelfTest t;
    t.name = "bad-single-buffered-allreduce";
    t.expect = "buffer-reuse";
    anton::sim::Simulator sim;
    net::Machine machine(sim, {2, 2, 2});
    core::DimOrderedAllReduce reduce(machine);
    t.plan.name = t.name;
    t.plan.shape = {2, 2, 2};
    reduce.appendPlan(t.plan, "");
    for (verify::BufferPlan& b : t.plan.buffers) b.copies = 1;
    tests.push_back(std::move(t));
  }
  {
    SelfTest t;  // both nodes wait for the packet the other sends afterwards
    t.name = "bad-deadlock";
    t.expect = "event.deadlock";
    t.plan.name = t.name;
    t.plan.shape = {2, 1, 1};
    t.plan.addPhase("exchange");
    for (int n = 0; n < 2; ++n) {
      t.plan.addWrite("exchange",  // send issued after the wait below
                      {.srcNode = n, .seq = 1, .counterId = 0,
                       .dst = {1 - n, net::kSlice0}});
      t.plan.addExpectation("exchange", "exchange",
                            {.client = {n, net::kSlice0}, .counterId = 0,
                             .perRound = 1, .recoveryArmed = true, .seq = 0},
                            {});
    }
    tests.push_back(std::move(t));
  }
  {
    SelfTest t;  // a counted wait with no recovery armed: a dropped packet
                 // would hang the phase forever (gating lint since ISSUE 5)
    t.name = "bad-recovery-unarmed";
    t.expect = "recovery-coverage";
    t.plan.name = t.name;
    t.plan.shape = {2, 1, 1};
    t.plan.addPhaseEdge("send", "recv");
    t.plan.addWrite("send",
                    {.srcNode = 0, .counterId = 0, .dst = {1, net::kSlice0}});
    t.plan.addExpectation("recv", "recv",
                          {.client = {1, net::kSlice0}, .counterId = 0,
                           .perRound = 1, .recoveryArmed = false},
                          {});
    tests.push_back(std::move(t));
  }
  {
    SelfTest t;  // a down +x link severs a pure-x line fan-out: no reroute
    t.name = "bad-multicast-stalled";
    t.expect = "multicast.stalled";
    t.plan.name = t.name;
    t.plan.shape = {4, 1, 1};
    const auto xPlus =
        std::uint8_t(1u << net::RingLayout::adapterIndex(0, +1));
    std::vector<verify::TreeRow> rows;
    std::vector<net::ClientAddr> dests;
    for (int n = 0; n < 4; ++n) {
      rows.push_back(
          {n, {.clientMask = std::uint8_t(n > 0 ? 1u << net::kSlice0 : 0u),
               .linkMask = std::uint8_t(n < 3 ? xPlus : 0u)}});
      if (n > 0) dests.push_back({n, net::kSlice0});
    }
    t.plan.addTree(9, 0, rows, dests);
    t.opts.downLinks = {{0, 0, +1}};
    t.opts.routeIssuesAreErrors = true;
    tests.push_back(std::move(t));
  }
  return tests;
}

void runSelfTests(Emitter& em, Totals& t) {
  for (SelfTest& st : selfTests()) {
    verify::VerifyResult r = verify::verifyPlan(st.plan, st.opts);
    bool fired = false;
    for (const verify::Violation& v : r.violations)
      if (v.check == st.expect) fired = true;
    for (const verify::Violation& v : r.lints)  // gating lint selftests
      if (v.check == st.expect) fired = true;
    ++t.selftests;
    if (!fired) ++t.selftestFailures;
    std::ostringstream os;
    os << "{\"kind\":\"selftest\",\"plan\":" << json::quoted(st.name)
       << ",\"expected\":" << json::quoted(st.expect)
       << ",\"violations\":" << r.violations.size()
       << ",\"fired\":" << (fired ? "true" : "false") << "}";
    em.line(os.str());
  }
}

// --- --timing: static critical-path & link-occupancy audit (ISSUE 9) --------

std::string timingLine(const verify::TimingReport& r) {
  std::ostringstream os;
  os << "{\"kind\":\"timing\",\"plan\":" << json::quoted(r.plan)
     << ",\"rounds\":" << r.rounds << ",\"events\":" << r.eventsModeled
     << ",\"criticalPathNs\":" << json::number(r.criticalPathNs)
     << ",\"perRoundNs\":" << json::number(r.perRoundNs)
     << ",\"linksUsed\":" << r.linksUsed
     << ",\"maxLinkDemandNs\":" << json::number(r.maxLinkDemandNs)
     << ",\"hotspots\":" << r.hotspots.size();
  if (r.degradedAnalyzed)
    os << ",\"degradedCriticalPathNs\":"
       << json::number(r.degradedCriticalPathNs)
       << ",\"inflation\":" << json::number(r.inflation)
       << ",\"degradedStalled\":" << (r.degradedStalled ? "true" : "false");
  os << ",\"violations\":" << r.violations.size()
     << ",\"ok\":" << (r.ok() ? "true" : "false") << "}";
  return os.str();
}

void emitTiming(Emitter& em, const verify::TimingReport& r) {
  em.line(timingLine(r));
  for (const verify::Violation& v : r.violations)
    em.line(findingLine(r.plan, v));
  // Top hotspots and the bottleneck tail, capped so the golden file stays
  // reviewable (the full tables are in the TimingReport for tests).
  std::size_t hcap = std::min<std::size_t>(4, r.hotspots.size());
  for (std::size_t i = 0; i < hcap; ++i) {
    const verify::LinkLoad& h = r.hotspots[i];
    std::ostringstream os;
    os << "{\"kind\":\"hotspot\",\"plan\":" << json::quoted(r.plan)
       << ",\"node\":" << h.node << ",\"link\":"
       << json::quoted(std::string(1, "xyz"[std::size_t(h.dim)]) +
                       (h.sign > 0 ? "+" : "-"))
       << ",\"phase\":" << json::quoted(h.phase)
       << ",\"packets\":" << h.packets
       << ",\"occupancyNs\":" << json::number(h.occupancyNs)
       << ",\"windowNs\":" << json::number(h.windowNs)
       << ",\"utilization\":" << json::number(h.utilization) << "}";
    em.line(os.str());
  }
  std::size_t pcap = std::min<std::size_t>(6, r.bottleneckPath.size());
  for (std::size_t i = r.bottleneckPath.size() - pcap;
       i < r.bottleneckPath.size(); ++i) {
    const verify::PathStep& s = r.bottleneckPath[i];
    std::ostringstream os;
    os << "{\"kind\":\"critical-event\",\"plan\":"
       << json::quoted(r.plan) << ",\"index\":" << i
       << ",\"event\":" << json::quoted(s.event)
       << ",\"arrivalNs\":" << json::number(s.arrivalNs)
       << ",\"edgeNs\":" << json::number(s.edgeNs) << "}";
    em.line(os.str());
  }
}

/// Seeded over-subscribed link: three nodes of an x-line each burst eight
/// 2 KiB packets into node 0, funneling through the shared wrap link — the
/// offered serialization exceeds the static completion window severalfold.
verify::CommPlan contentionFunnelPlan() {
  verify::CommPlan p;
  p.name = "bad-timing-contention";
  p.shape = {4, 1, 1};
  p.addPhaseEdge("burst", "drain");
  std::vector<verify::SourceCount> bursts;
  for (int n = 1; n < 4; ++n) {
    p.addWrite("burst", {.srcNode = n, .counterId = 0,
                         .dst = {0, net::kSlice0}, .packets = 8,
                         .bytes = 2048});
    bursts.push_back({n, 8});
  }
  p.addExpectation("drain", "drain",
                   {.client = {0, net::kSlice0}, .counterId = 0,
                    .perRound = 24, .recoveryArmed = true},
                   bursts);
  // Credit flow control: the drain acks each sender, and the next round's
  // burst waits for the credit. That couples consecutive rounds across
  // nodes, so the plan claims a finite steady-state round (a nonzero
  // per-round budget) — which is exactly what the funnel link cannot
  // serialize.
  std::vector<verify::BufferWriter> writers;
  for (int n = 1; n < 4; ++n) {
    p.addWrite("drain",
               {.srcNode = 0, .counterId = 1, .dst = {n, net::kSlice0}});
    p.addExpectation("burst.credit", "burst",
                     {.client = {n, net::kSlice0}, .counterId = 1,
                      .perRound = 1, .recoveryArmed = true},
                     {{{0, 1}}});
    writers.push_back({n, std::uint16_t(p.addPhase("burst"))});
  }
  p.addBuffer("drain.slots", "drain",
              {.client = {0, net::kSlice0}, .bytes = 24 * 2048}, writers);
  return p;
}

/// Audit every golden plan (healthy, plus a degraded Fig. 5 variant), then
/// prove the seeded-bad plans fire their timing diagnostics. Output mirrors
/// to VERIFY_timing.json (committed).
int runTiming(const std::string& outPath = "VERIFY_timing.json") {
  Emitter em(outPath);
  int audits = 0, violations = 0, selftests = 0, selftestFailures = 0;
  for (const std::string& name : tools::goldenPlanNames()) {
    verify::TimingReport r = verify::analyzeTiming(tools::buildNamedPlan(name));
    ++audits;
    violations += int(r.violations.size());
    emitTiming(em, r);
  }
  // Degraded re-pricing of the Fig. 5 topology. Minimal dimension-ordered
  // routing detours only while another dimension still has distance, so the
  // down link must sit where every flow crossing it has multi-dimension
  // remaining work: the +x link out of (6,4,4) carries only the (4,4,4)
  // pong's x-leg (y and z still pending), which reroutes cleanly and the
  // inflation stays under the blowup factor. Down links that strand a
  // single-dimension flow are the stall selftest's territory below.
  {
    verify::CommPlan plan = tools::buildNamedPlan("fig5-ping");
    plan.name = "fig5-ping-degraded";
    verify::TimingOptions opts;
    opts.downLinks = {
        {anton::util::torusIndex({6, 4, 4}, plan.shape), 0, +1}};
    verify::TimingReport r = verify::analyzeTiming(plan, opts);
    ++audits;
    violations += int(r.violations.size());
    emitTiming(em, r);
  }

  struct TimingSelfTest {
    std::string name;
    std::string expect;
    verify::CommPlan plan;
    verify::TimingOptions opts;
    net::LatencyConfig lat;
  };
  std::vector<TimingSelfTest> tests;
  {
    TimingSelfTest t;
    t.name = "bad-timing-contention";
    t.expect = "timing.contention";
    t.plan = contentionFunnelPlan();
    tests.push_back(std::move(t));
  }
  {
    // Degraded route that blows up the critical path: two staggered down +x
    // links zigzag the ping into five ring crossings where the healthy
    // dimension-ordered route pays two (the rest rides straight-through
    // transit), and an expensive on-chip ring turns each extra crossing
    // into real time. The write is in-order so the turns price exactly.
    TimingSelfTest t;
    t.name = "bad-timing-degraded-blowup";
    t.expect = "timing.degraded-blowup";
    t.plan = tools::buildPingPlan({4, 2, 0}, {8, 4, 1});
    t.plan.name = "bad-timing-degraded-blowup";
    t.plan.writes[0].inOrder = true;
    t.opts.downLinks = {
        {anton::util::torusIndex({1, 0, 0}, {8, 4, 1}), 0, +1},
        {anton::util::torusIndex({2, 1, 0}, {8, 4, 1}), 0, +1}};
    t.lat.routerHopEachNs = 500.0;
    tests.push_back(std::move(t));
  }
  {
    // Unreachable delivery: a 1-D line cannot reroute around an on-axis
    // outage, so the declared down link leaves the ping with no finite
    // bound at all.
    TimingSelfTest t;
    t.name = "bad-timing-stalled";
    t.expect = "timing.stalled";
    t.plan = tools::buildPingPlan({1, 0, 0}, {4, 1, 1});
    t.plan.name = "bad-timing-stalled";
    t.opts.downLinks = {{0, 0, +1}};
    tests.push_back(std::move(t));
  }
  for (TimingSelfTest& st : tests) {
    verify::TimingReport r = verify::analyzeTiming(st.plan, st.opts, st.lat);
    std::string detail;
    bool fired = false;
    for (const verify::Violation& v : r.violations)
      if (v.check == st.expect) {
        fired = true;
        detail = v.detail;
        break;
      }
    ++selftests;
    if (!fired) ++selftestFailures;
    std::ostringstream os;
    os << "{\"kind\":\"selftest\",\"plan\":" << json::quoted(st.name)
       << ",\"expected\":" << json::quoted(st.expect)
       << ",\"violations\":" << r.violations.size()
       << ",\"fired\":" << (fired ? "true" : "false")
       << ",\"detail\":" << json::quoted(detail) << "}";
    em.line(os.str());
  }

  bool ok = violations == 0 && selftestFailures == 0;
  std::ostringstream os;
  os << "{\"kind\":\"summary\",\"mode\":\"timing\",\"audits\":" << audits
     << ",\"violations\":" << violations << ",\"selftests\":" << selftests
     << ",\"selftestFailures\":" << selftestFailures
     << ",\"ok\":" << (ok ? "true" : "false") << "}";
  em.line(os.str());
  std::cerr << (ok ? "verify_plans --timing: OK"
                   : "verify_plans --timing: FAILED")
            << " (" << audits << " audits, " << violations << " violations, "
            << selftestFailures << "/" << selftests << " selftest failures)\n";
  return ok ? 0 : 1;
}

// --- --timing-oracle: measured-latency oracle --------------------------------

struct TimingOracleCase {
  std::string family;  ///< envelope key (tools::timingSlackEnvelope)
  std::string name;    ///< case label, e.g. "fig5-ping-4-4-4"
  double measuredNs = 0.0;
  double boundNs = 0.0;
};

double pingCaseNs(anton::util::TorusCoord corner) {
  anton::sim::Simulator simulator;
  net::Machine machine(simulator, {8, 8, 8});
  return net::oneWayLatencyNs(
      machine, {0, net::kSlice0},
      {anton::util::torusIndex(corner, {8, 8, 8}), net::kSlice0},
      /*payloadBytes=*/0);
}

struct MdMeasure {
  double finalNs = 0.0;
  bool worstCaseStep = false;  ///< a step ran long-range + thermostat +
                               ///< migration (the extracted template round)
};

MdMeasure mdCaseNs(int steps) {
  anton::sim::Simulator simulator;
  net::Machine machine(simulator, {4, 4, 4});
  anton::md::SyntheticSystemParams sp;
  sp.targetAtoms = 1536;
  sp.seed = 2010;
  anton::md::AntonMdApp app(machine, anton::md::buildSyntheticSystem(sp),
                            tools::quickstartMdConfig());
  app.runSteps(steps);
  MdMeasure m;
  m.finalNs = sim::toNs(simulator.now());
  for (const anton::md::StepTiming& st : app.stepTimings())
    if (st.longRange && st.thermostat && st.migration) m.worstCaseStep = true;
  return m;
}

double allReduceCaseNs() {
  anton::sim::Simulator arena;
  net::Machine machine(arena, {2, 2, 2});
  core::DimOrderedAllReduce reduce(machine);
  const int n = machine.numNodes();
  std::vector<std::vector<double>> out;
  out.resize(std::size_t(n));
  auto task = [&](int node) -> sim::Task {
    std::vector<double> in(4, double(node));
    co_await reduce.run(node, std::move(in), &out[std::size_t(node)]);
  };
  for (int node = 0; node < n; ++node) arena.spawn(task(node));
  arena.run();
  return sim::toNs(arena.now());
}

/// Run the live ping / MD / all-reduce schedules once each and enforce the
/// soundness contract of the static bound: measured completion >=
/// analyzeTiming's lower bound, with the measured/bound slack ratio inside
/// the family's pinned envelope. A seeded inflated bound must be refuted by
/// the live measurement.
int runTimingOracle() {
  Emitter em("VERIFY_timing_oracle.json");
  int violations = 0, selftests = 0, selftestFailures = 0;
  std::vector<TimingOracleCase> cases;
  double measured1HopNs = 0.0;  // reused by the inflated-bound selftest

  // Fig. 5 family: one-way counted-write pings at 1, 4 and 12 hops.
  for (anton::util::TorusCoord corner :
       {anton::util::TorusCoord{1, 0, 0}, anton::util::TorusCoord{2, 2, 0},
        anton::util::TorusCoord{4, 4, 4}}) {
    TimingOracleCase c;
    c.family = "fig5-ping";
    verify::CommPlan plan = tools::buildPingPlan(corner);
    c.name = "fig5-" + plan.name;
    verify::TimingOptions opts;
    opts.rounds = 1;
    c.boundNs = verify::analyzeTiming(plan, opts).criticalPathNs;
    c.measuredNs = pingCaseNs(corner);
    if (corner == anton::util::TorusCoord{1, 0, 0})
      measured1HopNs = c.measuredNs;
    cases.push_back(std::move(c));
  }

  // Quickstart MD family: the final time of one migration interval's run
  // against the one-round bound of the worst-case superstep template; the
  // cadences put a worst-case step in every interval, and the run must
  // contain one for the comparison to be meaningful.
  {
    TimingOracleCase c;
    c.family = "quickstart-md";
    c.name = "quickstart-md";
    verify::TimingOptions opts;
    opts.rounds = 1;
    c.boundNs =
        verify::analyzeTiming(tools::buildNamedPlan("quickstart-md"), opts)
            .criticalPathNs;
    MdMeasure m = mdCaseNs(tools::quickstartMdConfig().migrationInterval);
    if (!m.worstCaseStep) {
      verify::Violation v;
      v.check = "timing.bound";
      v.site = c.name;
      v.detail = "no worst-case MD step executed: the one-round bound has "
                 "nothing to anchor against";
      ++violations;
      em.line(findingLine(c.name, v));
    }
    c.measuredNs = m.finalNs;
    cases.push_back(std::move(c));
  }

  // Table 2 family: one live dim-ordered all-reduce call on the 2x2x2 torus.
  {
    TimingOracleCase c;
    c.family = "table2-allreduce";
    c.name = "table2-allreduce-2x2x2";
    verify::TimingOptions opts;
    opts.rounds = 1;
    c.boundNs = verify::analyzeTiming(
                    tools::buildNamedPlan("table2-allreduce-2x2x2"), opts)
                    .criticalPathNs;
    c.measuredNs = allReduceCaseNs();
    cases.push_back(std::move(c));
  }

  for (const TimingOracleCase& c : cases) {
    std::vector<verify::Violation> vs;
    double ratio = c.boundNs > 0.0 ? c.measuredNs / c.boundNs : 0.0;
    tools::SlackEnvelope env = tools::timingSlackEnvelope(c.family);
    if (c.measuredNs < c.boundNs) {
      verify::Violation v;
      v.check = "timing.bound";
      v.site = c.name;
      v.detail = "static lower bound " + std::to_string(c.boundNs) +
                 " ns exceeds the measured completion " +
                 std::to_string(c.measuredNs) +
                 " ns: the bound is refuted by the live schedule";
      vs.push_back(std::move(v));
    } else if (ratio > env.maxRatio) {
      verify::Violation v;
      v.check = "timing.slack-envelope";
      v.site = c.name;
      v.detail = "measured/bound slack " + std::to_string(ratio) +
                 " exceeds the pinned envelope " +
                 std::to_string(env.maxRatio) + " for family '" + c.family +
                 "': the static pricing decoupled from the machine model";
      vs.push_back(std::move(v));
    }
    violations += int(vs.size());
    std::ostringstream os;
    os << "{\"kind\":\"timing-oracle\",\"family\":"
       << json::quoted(c.family)
       << ",\"case\":" << json::quoted(c.name)
       << ",\"measuredNs\":" << json::number(c.measuredNs)
       << ",\"boundNs\":" << json::number(c.boundNs)
       << ",\"ratio\":" << json::number(ratio)
       << ",\"maxRatio\":" << json::number(env.maxRatio)
       << ",\"violations\":" << vs.size()
       << ",\"ok\":" << (vs.empty() ? "true" : "false") << "}";
    em.line(os.str());
    for (const verify::Violation& v : vs) em.line(findingLine(c.name, v));
  }

  // Seeded inflated bound: with assembly priced at 50 us the static "bound"
  // for the 1-hop ping dwarfs the live 162 ns measurement — the oracle must
  // refute it (measured < claimed bound).
  {
    net::LatencyConfig inflated;
    inflated.assemblyNs = 50000.0;
    verify::TimingOptions opts;
    opts.rounds = 1;
    double claimed =
        verify::analyzeTiming(tools::buildPingPlan({1, 0, 0}), opts, inflated)
            .criticalPathNs;
    bool fired = measured1HopNs < claimed;
    ++selftests;
    if (!fired) ++selftestFailures;
    std::ostringstream os;
    os << "{\"kind\":\"selftest\",\"plan\":"
       << json::quoted("bad-timing-inflated-bound")
       << ",\"expected\":" << json::quoted("timing.bound")
       << ",\"claimedNs\":" << json::number(claimed)
       << ",\"measuredNs\":" << json::number(measured1HopNs)
       << ",\"fired\":" << (fired ? "true" : "false") << "}";
    em.line(os.str());
  }

  bool ok = violations == 0 && selftestFailures == 0;
  std::ostringstream os;
  os << "{\"kind\":\"summary\",\"mode\":\"timing-oracle\",\"cases\":"
     << cases.size() << ",\"violations\":" << violations
     << ",\"selftests\":" << selftests
     << ",\"selftestFailures\":" << selftestFailures
     << ",\"ok\":" << (ok ? "true" : "false") << "}";
  em.line(os.str());
  std::cerr << (ok ? "verify_plans --timing-oracle: OK"
                   : "verify_plans --timing-oracle: FAILED")
            << " (" << cases.size() << " cases, " << violations
            << " violations, " << selftestFailures << "/" << selftests
            << " selftest failures)\n";
  return ok ? 0 : 1;
}

// --- --diff / --dump-plans ---------------------------------------------------

verify::CommPlan loadPlanArg(const std::string& arg) {
  if (std::filesystem::exists(arg)) {
    std::ifstream in(arg);
    if (!in) throw std::runtime_error("cannot read " + arg);
    std::ostringstream buf;
    buf << in.rdbuf();
    return verify::planFromJson(buf.str());
  }
  return tools::buildNamedPlan(arg);
}

int runDiff(const std::string& a, const std::string& b) {
  verify::CommPlan pa = loadPlanArg(a);
  verify::CommPlan pb = loadPlanArg(b);
  verify::PlanDelta delta = verify::diffPlans(pa, pb);
  for (const verify::PlanDeltaEntry& e : delta.entries)
    std::cout << e.category << " | " << e.site << " | " << e.detail << "\n";
  if (delta.identical()) {
    std::cerr << "verify_plans --diff: plans are structurally identical\n";
    return 0;
  }
  std::cerr << "verify_plans --diff: " << delta.entries.size()
            << " structural difference(s) between '" << a << "' and '" << b
            << "'\n";
  return 1;
}

/// --plan-keys: one "<name> <planKeyHex>" line per shipped golden plan.
/// The hex is verify::planKey over the canonical snapshot bytes, the plan's
/// stable identity, pinned as constants by golden_plan_test. (Serve keys a
/// job by its spec alone; plan keys are not part of job keys.)
int runPlanKeys() {
  for (const std::string& name : tools::goldenPlanNames())
    std::cout << name << " "
              << verify::planKeyHex(tools::buildNamedPlan(name)) << "\n";
  return 0;
}

int runDump(const std::string& dir) {
  std::filesystem::create_directories(dir);
  for (const std::string& name : tools::goldenPlanNames()) {
    std::filesystem::path path =
        std::filesystem::path(dir) / (name + ".json");
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path.string());
    out << verify::planToJson(tools::buildNamedPlan(name));
    std::cerr << "wrote " << path.string() << "\n";
  }
  return 0;
}

/// --update-goldens: regenerate every committed snapshot in place — the
/// plan JSON files plus the golden-diffed timing report — so an intended
/// extractor or pricing change is a one-command refresh.
int runUpdateGoldens(const std::string& dir) {
  runDump(dir);
  int ti =
      runTiming((std::filesystem::path(dir) / "VERIFY_timing.json").string());
  std::cerr << "verify_plans --update-goldens: refreshed snapshots and the "
               "timing report in "
            << dir << "\n";
  return ti;
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false, selftestOnly = false;
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--diff") == 0) {
        if (i + 2 >= argc) {
          std::cerr << "usage: verify_plans --diff <plan-or-file> "
                       "<plan-or-file>\n";
          return 2;
        }
        return runDiff(argv[i + 1], argv[i + 2]);
      }
      if (std::strcmp(argv[i], "--dump-plans") == 0) {
        if (i + 1 >= argc) {
          std::cerr << "usage: verify_plans --dump-plans <dir>\n";
          return 2;
        }
        return runDump(argv[i + 1]);
      }
      if (std::strcmp(argv[i], "--plan-keys") == 0) return runPlanKeys();
      if (std::strcmp(argv[i], "--timing") == 0) return runTiming();
      if (std::strcmp(argv[i], "--timing-oracle") == 0)
        return runTimingOracle();
      if (std::strcmp(argv[i], "--update-goldens") == 0) {
        std::string dir = "tests/golden_plans";
        if (i + 1 < argc && argv[i + 1][0] != '-') dir = argv[i + 1];
        return runUpdateGoldens(dir);
      }
      if (std::strcmp(argv[i], "--fast") == 0) {
        fast = true;
      } else if (std::strcmp(argv[i], "--selftest-only") == 0) {
        selftestOnly = true;
      } else {
        std::cerr << "usage: verify_plans [--fast] [--selftest-only] "
                     "[--dump-plans DIR] [--diff A B] [--plan-keys] "
                     "[--timing] [--timing-oracle] "
                     "[--update-goldens [DIR]]\n";
        return 2;
      }
    }
    Emitter em;
    Totals t;
    if (!selftestOnly) {
      runPlan(em, t, tools::buildNamedPlan("quickstart-md"));
      runPlan(em, t, tools::buildNamedPlan("fig5-ping"));
      {
        // The same topology audited in degraded mode: a down +x link out of
        // node 0 exercises the reroute path (lints, not errors, so the
        // shipped plan stays green while the reroutes are reported).
        verify::CommPlan p = tools::buildNamedPlan("fig5-ping");
        p.name = "fig5-ping-degraded";
        verify::VerifyOptions opts;
        opts.downLinks = {{0, 0, +1}};
        opts.routeIssuesAreErrors = false;
        runPlan(em, t, p, opts);
      }
      for (const char* shape :
           {"4x4x4", "8x2x8", "8x8x4", "8x8x8", "8x8x16"})
        runPlan(em, t, tools::buildNamedPlan(std::string("table2-allreduce-") +
                                             shape));
      {
        // Degraded audit of the line fan-outs: an on-axis outage cannot be
        // rerouted around inside a 1-D line, so the affected trees are
        // reported as stalls (informational here; the live machine would
        // wait out the outage).
        verify::CommPlan p = tools::buildNamedPlan("table2-allreduce-4x4x4");
        p.name = "table2-allreduce-4x4x4-degraded";
        verify::VerifyOptions opts;
        opts.downLinks = {{0, 0, +1}};
        opts.routeIssuesAreErrors = false;
        runPlan(em, t, p, opts);
      }
      {
        // Degraded audit of the MD step: the position-import and flush
        // trees span all three dimensions, so the repair pass re-covers
        // every lost destination with rerouted unicast paths.
        verify::CommPlan p = tools::buildNamedPlan("quickstart-md");
        p.name = "quickstart-md-degraded";
        verify::VerifyOptions opts;
        opts.downLinks = {{0, 0, +1}};
        opts.routeIssuesAreErrors = false;
        runPlan(em, t, p, opts);
      }
      // Degenerate torus with a traffic-carrying extent-1 dimension: pins
      // the reduced-offset half-shell dedup (ISSUE 5 satellite).
      runPlan(em, t, tools::buildNamedPlan("md-4x4x1"));
      runPlan(em, t, tools::buildNamedPlan("fft-pair-2x2x2"));
      runPlan(em, t, tools::buildNamedPlan("cluster-allreduce-512"));
      if (!fast) runPlan(em, t, tools::buildNamedPlan("table3-md-8x8x8"));
    }
    runSelfTests(em, t);

    bool ok = t.violations == 0 && t.recoveryLints == 0 &&
              t.selftestFailures == 0;
    std::ostringstream os;
    os << "{\"kind\":\"summary\",\"plans\":" << t.plans
       << ",\"violations\":" << t.violations << ",\"lints\":" << t.lints
       << ",\"recoveryLints\":" << t.recoveryLints
       << ",\"selftests\":" << t.selftests
       << ",\"selftestFailures\":" << t.selftestFailures
       << ",\"ok\":" << (ok ? "true" : "false") << "}";
    em.line(os.str());
    std::cerr << (ok ? "verify_plans: OK" : "verify_plans: FAILED") << " ("
              << t.plans << " plans, " << t.violations << " violations, "
              << t.lints << " lints of which " << t.recoveryLints
              << " recovery-coverage (gating), " << t.selftestFailures << "/"
              << t.selftests << " selftest failures)\n";
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "verify_plans: " << e.what() << "\n";
    return 2;
  }
}
