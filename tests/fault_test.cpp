// The reliability subsystem: a zero-fault plan must be timing-invisible
// (all calibrated anchors hold exactly), bit errors must be repaired by
// link-level retransmission with the calibrated penalty, outages must stall
// or reroute, router stalls must delay ring traffic, and the counted-write
// watchdog must turn a would-be deadlock into a diagnostic.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "core/recovery.hpp"
#include "fault/plan.hpp"
#include "fault/report.hpp"
#include "net/machine.hpp"
#include "sim/simulator.hpp"
#include "trace/activity.hpp"

namespace anton {
namespace {

using net::ClientAddr;
using net::kSlice0;
using net::kSlice1;
using net::Machine;
using net::MachineConfig;
using net::NetworkClient;
using sim::Task;
using sim::toNs;

struct Fixture {
  sim::Simulator sim;
  Machine machine;
  explicit Fixture(util::TorusShape shape = {8, 8, 8}, MachineConfig cfg = {})
      : machine(sim, shape, cfg) {}

  int nodeAt(int x, int y, int z) {
    return util::torusIndex({x, y, z}, machine.shape());
  }

  double oneWayNs(ClientAddr src, ClientAddr dst, std::size_t payloadBytes,
                  bool inOrder = true) {
    double doneNs = -1.0;
    auto receiver = [](Fixture& f, ClientAddr d, double& out) -> Task {
      NetworkClient& c = f.machine.client(d);
      co_await c.waitCounter(0, c.counterValue(0) + 1);
      out = toNs(f.sim.now());
    };
    sim.spawn(receiver(*this, dst, doneNs));
    double startNs = toNs(sim.now());
    NetworkClient::SendArgs args;
    args.dst = dst;
    args.counterId = 0;
    args.inOrder = inOrder;
    if (payloadBytes != 0) args.payload = net::makeZeroPayload(payloadBytes);
    machine.client(src).post(args);
    sim.run();
    EXPECT_GE(doneNs, 0.0) << "message never arrived";
    return doneNs - startNs;
  }
};

TEST(FaultPlan, ZeroFaultPlanIsTimingInvisible) {
  // All calibrated anchors hold exactly with an idle plan installed.
  Fixture f;
  fault::FaultPlan plan;
  f.machine.setFaultModel(&plan);
  EXPECT_DOUBLE_EQ(f.oneWayNs({f.nodeAt(0, 0, 0), kSlice0},
                              {f.nodeAt(1, 0, 0), kSlice0}, 0),
                   162.0);
  Fixture g;
  fault::FaultPlan plan2;
  g.machine.setFaultModel(&plan2);
  double h1 = g.oneWayNs({g.nodeAt(0, 0, 0), kSlice0},
                         {g.nodeAt(1, 0, 0), kSlice0}, 0);
  Fixture g4;
  fault::FaultPlan plan3;
  g4.machine.setFaultModel(&plan3);
  double h4 = g4.oneWayNs({g4.nodeAt(0, 0, 0), kSlice0},
                          {g4.nodeAt(4, 0, 0), kSlice0}, 0);
  EXPECT_DOUBLE_EQ((h4 - h1) / 3.0, 76.0);

  const net::MachineStats& s = f.machine.stats();
  EXPECT_EQ(s.crcRetransmits, 0u);
  EXPECT_EQ(s.outageStalls, 0u);
  EXPECT_EQ(s.routerStalls, 0u);
  EXPECT_EQ(s.faultReroutes, 0u);
  EXPECT_EQ(s.retransmitDelay, 0);
  EXPECT_EQ(s.stallDelay, 0);
  EXPECT_EQ(plan.stats().traversalsSeen, 1u);
  EXPECT_EQ(plan.stats().corruptTraversals, 0u);
}

TEST(FaultPlan, CapExhaustionDropsPacketAndRaisesLinkFailure) {
  // BER = 1 makes every copy corrupt: the traversal replays exactly the cap,
  // the final copy is also corrupt, and the hardware drops the packet
  // instead of silently delivering it. The loss is observable: stats, trace
  // kind, drop handler — and the counter never bumps.
  fault::FaultConfig fc;
  fc.bitErrorRate = 1.0;
  fc.maxRetransmits = 2;
  Fixture f;
  trace::ActivityTrace tr;
  f.machine.setTrace(&tr);
  fault::FaultPlan plan(fc);
  f.machine.setFaultModel(&plan);

  net::PacketPtr dropped;
  std::vector<ClientAddr> denied;
  f.machine.setDropHandler(
      [&](const net::PacketPtr& p, const std::vector<ClientAddr>& d) {
        dropped = p;
        denied = d;
      });

  ClientAddr dst{f.nodeAt(1, 0, 0), kSlice0};
  NetworkClient::SendArgs args;
  args.dst = dst;
  args.counterId = 0;
  args.inOrder = true;
  f.machine.client({f.nodeAt(0, 0, 0), kSlice0}).post(args);
  f.sim.run();

  EXPECT_EQ(f.machine.client(dst).counterValue(0), 0u) << "dropped packet bumped";
  EXPECT_EQ(f.machine.stats().packetsDelivered, 0u);
  EXPECT_EQ(f.machine.stats().linkFailures, 1u);
  EXPECT_EQ(f.machine.stats().crcRetransmits, 2u);
  // The exhausted replays still charged the calibrated penalty.
  const net::LatencyConfig& lat = f.machine.latency();
  sim::Time perReplay =
      lat.linkSerialization(net::kHeaderBytes) + sim::ns(lat.crcRetransmitNs);
  EXPECT_EQ(f.machine.stats().retransmitDelay, 2 * perReplay);
  EXPECT_EQ(plan.stats().corruptTraversals, 1u);
  EXPECT_EQ(plan.stats().replays, 2u);
  EXPECT_EQ(plan.stats().linkFailures, 1u);
  // The drop handler saw the packet and the lost receiver.
  ASSERT_NE(dropped, nullptr);
  ASSERT_EQ(denied.size(), 1u);
  EXPECT_EQ(denied[0], dst);
  // The failed transmission is traced under its own kind.
  EXPECT_GT(tr.busyTime(tr.unit("link.X+"), tr.kind("linkfail"), 0, sim::us(1)),
            0);
}

TEST(FaultPlan, BitErrorsAreRepairedNotLost) {
  // Heavy but non-certain BER: every packet still arrives (counters reach
  // their targets), with retransmissions accounted for.
  fault::FaultConfig fc;
  fc.seed = 99;
  fc.bitErrorRate = 1e-3;
  Fixture f;
  fault::FaultPlan plan(fc);
  f.machine.setFaultModel(&plan);

  const int kPackets = 200;
  ClientAddr dst{f.nodeAt(1, 0, 0), kSlice0};
  double done = -1.0;
  auto receiver = [&]() -> Task {
    co_await f.machine.client(dst).waitCounter(0, kPackets);
    done = toNs(f.sim.now());
  };
  f.sim.spawn(receiver());
  NetworkClient::SendArgs args;
  args.dst = dst;
  args.counterId = 0;
  for (int i = 0; i < kPackets; ++i) f.machine.client({0, kSlice0}).post(args);
  f.sim.run();

  EXPECT_GE(done, 0.0) << "delivery hung under bit errors";
  EXPECT_EQ(f.machine.stats().packetsDelivered, std::uint64_t(kPackets));
  EXPECT_GT(f.machine.stats().crcRetransmits, 0u);
  EXPECT_GT(f.machine.stats().retransmitDelay, 0);
}

TEST(FaultPlan, OutageStallsUntilWindowCloses) {
  Fixture f;
  fault::FaultPlan plan;
  plan.addLinkOutage(0, /*dim=*/0, /*sign=*/+1, 0, sim::us(10));
  f.machine.setFaultModel(&plan);
  double ns = f.oneWayNs({f.nodeAt(0, 0, 0), kSlice0},
                         {f.nodeAt(1, 0, 0), kSlice0}, 0);
  EXPECT_GT(ns, 10000.0);  // held for the 10 us window
  EXPECT_LT(ns, 10000.0 + 200.0);
  EXPECT_EQ(f.machine.stats().outageStalls, 1u);
  EXPECT_GT(f.machine.stats().stallDelay, 0);
}

TEST(FaultPlan, DegradedModeRoutesAroundOutage) {
  MachineConfig cfg;
  cfg.faultReroute = true;
  Fixture f({8, 8, 8}, cfg);
  fault::FaultPlan plan;
  plan.addLinkOutage(0, /*dim=*/0, /*sign=*/+1, 0, sim::us(1000));
  f.machine.setFaultModel(&plan);
  double ns = f.oneWayNs({f.nodeAt(0, 0, 0), kSlice0},
                         {f.nodeAt(1, 1, 0), kSlice0}, 0);
  // Y-first avoids the dead X+ link entirely: no stall, two hops.
  EXPECT_LT(ns, 400.0);
  EXPECT_EQ(f.machine.stats().outageStalls, 0u);
  EXPECT_EQ(f.machine.stats().faultReroutes, 1u);
  EXPECT_EQ(f.machine.linkTraversals(0, 0, +1), 0u);
  EXPECT_EQ(f.machine.linkTraversals(0, 1, +1), 1u);
}

/// One link permanently dead: traversals that still use it are held briefly
/// (outage) and then dropped (erasure), and degraded routing sees it as down.
struct DeadLink final : net::FaultModel {
  int node, dim, sign;
  DeadLink(int n, int d, int s) : node(n), dim(d), sign(s) {}
  net::LinkFaultOutcome onLinkTraversal(int n, int d, int s, std::size_t,
                                        sim::Time) override {
    if (n == node && d == dim && s == sign)
      return {.stall = sim::ns(500), .linkFailed = true};
    return {};
  }
  bool linkDown(int n, int d, int s, sim::Time) const override {
    return n == node && d == dim && s == sign;
  }
  sim::Time routerStallUntil(int, sim::Time t) const override { return t; }
};

TEST(FaultPlan, RerouteOnTimeoutRecoversAroundDeadLink) {
  // Combined outage + drop: the X+ link out of the origin holds the packet
  // for the outage window, then drops it. The machine runs with degraded
  // routing OFF, so the recovery path must do both steps itself — the
  // timeout's diagnosis replays the lost payload from the registry, and the
  // replay (degradedRoute) routes Y-first around the dead link.
  Fixture f({4, 4, 4});
  core::DropRegistry reg(f.machine);
  DeadLink fm(f.nodeAt(0, 0, 0), /*dim=*/0, /*sign=*/+1);
  f.machine.setFaultModel(&fm);

  const int srcNode = f.nodeAt(0, 0, 0);
  ClientAddr dst{f.nodeAt(1, 1, 0), kSlice0};
  NetworkClient& dstClient = f.machine.client(dst);
  core::RecoveryStats stats;
  const core::RecoveryHooks hooks{
      .registry = &reg,
      .config = {.timeout = sim::us(2), .maxResends = 3,
                 .resendBackoff = sim::us(1)},
      .stats = &stats};
  const verify::SourceCount owed[] = {{srcNode, 1}};
  bool done = false;
  auto waiter = [&]() -> Task {
    co_await core::recoverCounted(dstClient, 0, 1, owed, hooks);
    done = true;
  };
  f.sim.spawn(waiter());
  std::uint64_t value = 0x162;
  NetworkClient::SendArgs args;
  args.dst = dst;
  args.counterId = 0;
  args.inOrder = true;
  args.payload = net::makePayload(&value, sizeof value);
  f.machine.client({srcNode, kSlice0}).post(args);
  f.sim.run();

  EXPECT_TRUE(done) << "rerouted step never completed";
  EXPECT_EQ(dstClient.counterValue(0), 1u);
  EXPECT_EQ(dstClient.read<std::uint64_t>(0), 0x162u);
  // The original attempt: one outage stall, then the drop.
  EXPECT_EQ(f.machine.stats().outageStalls, 1u);
  EXPECT_EQ(f.machine.stats().linkFailures, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.resends, 1u);
  EXPECT_EQ(stats.hardFailures, 0u);
  // The resend deviated from the dead preferred dimension: Y-first, and the
  // dead X+ link saw only the doomed original traversal.
  EXPECT_GE(f.machine.stats().faultReroutes, 1u);
  EXPECT_EQ(f.machine.linkTraversals(srcNode, 0, +1), 1u);
}

TEST(FaultPlan, StalledRouterDelaysRingTraffic) {
  Fixture f;
  fault::FaultPlan plan;
  plan.addRouterStall(f.nodeAt(1, 0, 0), 0, sim::us(5));
  f.machine.setFaultModel(&plan);
  double ns = f.oneWayNs({f.nodeAt(0, 0, 0), kSlice0},
                         {f.nodeAt(1, 0, 0), kSlice0}, 0);
  EXPECT_GT(ns, 5000.0);
  EXPECT_GE(f.machine.stats().routerStalls, 1u);
}

TEST(FaultPlan, FaultEventsAreTraced) {
  fault::FaultConfig fc;
  fc.bitErrorRate = 1.0;
  fc.maxRetransmits = 1;
  Fixture f;
  trace::ActivityTrace tr;
  f.machine.setTrace(&tr);
  fault::FaultPlan plan(fc);
  plan.addLinkOutage(0, 0, +1, 0, sim::ns(500));
  f.machine.setFaultModel(&plan);
  // BER = 1 with cap 1 drops the packet at the first link; every fault event
  // on the way is traced under its own kind.
  NetworkClient::SendArgs args;
  args.dst = {f.nodeAt(1, 0, 0), kSlice0};
  args.counterId = 0;
  args.inOrder = true;
  f.machine.client({f.nodeAt(0, 0, 0), kSlice0}).post(args);
  f.sim.run();

  int retx = tr.kind("retx"), outage = tr.kind("outage");
  int linkfail = tr.kind("linkfail");
  int xplus = tr.unit("link.X+");
  EXPECT_GT(tr.busyTime(xplus, retx, 0, sim::us(1)), 0);
  EXPECT_GT(tr.busyTime(xplus, outage, 0, sim::us(1)), 0);
  EXPECT_GT(tr.busyTime(xplus, linkfail, 0, sim::us(1)), 0);
}

TEST(Watchdog, TimesOutWithDiagnosticInsteadOfDeadlock) {
  Fixture f({4, 4, 4});
  NetworkClient& dst = f.machine.client({0, kSlice0});
  const verify::SourceCount owed[] = {{1, 1}, {2, 2}};
  core::WatchdogReport report;
  auto waiter = [&]() -> Task {
    report = co_await core::watchCounter(dst, 0, 3, sim::us(2), owed);
  };
  f.sim.spawn(waiter());
  // Node 1 sends its packet; node 2 never does.
  NetworkClient::SendArgs args;
  args.dst = dst.addr();
  args.counterId = 0;
  f.machine.client({1, kSlice0}).post(args);
  f.sim.run();  // returns: the deadline event keeps the simulation live

  EXPECT_TRUE(report.timedOut);
  EXPECT_EQ(report.expected, 3u);
  EXPECT_EQ(report.arrived, 1u);
  EXPECT_DOUBLE_EQ(toNs(report.resolvedAt), 2000.0);
  ASSERT_EQ(report.missing.size(), 1u);
  EXPECT_EQ(report.missing[0].node, 2);
  EXPECT_EQ(report.missing[0].expected, 2u);
  EXPECT_EQ(report.missing[0].arrived, 0u);
  EXPECT_NE(report.describe().find("TIMED OUT"), std::string::npos);
  EXPECT_NE(report.describe().find("node 2"), std::string::npos);
}

TEST(Watchdog, ResolvesNormallyWhenTrafficArrives) {
  Fixture f({4, 4, 4});
  NetworkClient& dst = f.machine.client({0, kSlice1});
  core::WatchdogReport report;
  auto waiter = [&]() -> Task {
    report = co_await core::watchCounter(dst, 0, 2, sim::us(100));
  };
  f.sim.spawn(waiter());
  NetworkClient::SendArgs args;
  args.dst = dst.addr();
  args.counterId = 0;
  f.machine.client({1, kSlice0}).post(args);
  f.machine.client({2, kSlice0}).post(args);
  f.sim.run();

  EXPECT_FALSE(report.timedOut);
  EXPECT_EQ(report.arrived, 2u);
  // Resolution is prompt (counter path), not at the 100 us deadline.
  EXPECT_LT(toNs(report.resolvedAt), 1000.0);
}

TEST(FaultReport, SummaryReflectsCounters) {
  fault::FaultConfig fc;
  fc.bitErrorRate = 1.0;
  fc.maxRetransmits = 1;
  Fixture f;
  fault::FaultPlan plan(fc);
  f.machine.setFaultModel(&plan);
  // The packet replays once, then drops at cap exhaustion.
  NetworkClient::SendArgs args;
  args.dst = {f.nodeAt(1, 0, 0), kSlice0};
  args.counterId = 0;
  args.inOrder = true;
  f.machine.client({f.nodeAt(0, 0, 0), kSlice0}).post(args);
  f.sim.run();

  std::ostringstream os;
  fault::printFaultSummary(os, f.machine, &plan);
  EXPECT_NE(os.str().find("CRC retransmits"), std::string::npos);
  EXPECT_NE(os.str().find("link failures (drops)"), std::string::npos);
  EXPECT_NE(os.str().find("1"), std::string::npos);
  std::string line = fault::faultSummaryLine(f.machine.stats());
  EXPECT_NE(line.find("retx=1"), std::string::npos);
  EXPECT_NE(line.find("linkfail=1"), std::string::npos);
}

}  // namespace
}  // namespace anton
