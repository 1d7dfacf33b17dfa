// Multicast tree construction, pattern-id allocation, and the counted
// schedule's arrivals read from the installed tables.
#include <gtest/gtest.h>

#include "core/multicast.hpp"
#include "core/neighborhood.hpp"
#include "core/schedule.hpp"
#include "sim/simulator.hpp"

namespace anton::core {
namespace {

using net::ClientAddr;
using net::kSlice0;
using net::kHtis;
using sim::Task;

struct Fixture {
  sim::Simulator sim;
  net::Machine machine;
  explicit Fixture(util::TorusShape shape = {4, 4, 4})
      : machine(sim, shape, {}) {}
  int at(int x, int y, int z) {
    return util::torusIndex({x, y, z}, machine.shape());
  }
};

TEST(MulticastTree, SingleLocalDestination) {
  Fixture f;
  MulticastTree t = buildMulticastTree(f.machine, 0, {{0, kHtis}});
  ASSERT_EQ(t.entries.size(), 1u);
  EXPECT_EQ(t.at(0).clientMask, 1u << kHtis);
  EXPECT_EQ(t.at(0).linkMask, 0u);
}

TEST(MulticastTree, SharedPathPrefixIsMerged) {
  // Two destinations along +X at distance 1 and 2 share the first link.
  Fixture f;
  MulticastTree t = buildMulticastTree(
      f.machine, 0, {{f.at(1, 0, 0), kSlice0}, {f.at(2, 0, 0), kSlice0}});
  EXPECT_EQ(t.entries.size(), 3u);
  int xPlus = net::RingLayout::adapterIndex(0, +1);
  EXPECT_EQ(t.at(0).linkMask, 1u << xPlus);
  EXPECT_EQ(t.at(f.at(1, 0, 0)).linkMask, 1u << xPlus);
  EXPECT_EQ(t.at(f.at(1, 0, 0)).clientMask, 1u << kSlice0);
  EXPECT_EQ(t.at(f.at(2, 0, 0)).linkMask, 0u);
  EXPECT_THROW(t.at(f.at(3, 0, 0)), std::out_of_range);  // not on the path
}

TEST(MulticastTree, EmptyDestinationsThrow) {
  Fixture f;
  EXPECT_THROW(buildMulticastTree(f.machine, 0, {}), std::invalid_argument);
}

TEST(MulticastTree, DeliveryMatchesTree) {
  // End-to-end: install a 5-destination tree and verify exactly those
  // clients receive the packet.
  Fixture f;
  std::vector<ClientAddr> dests = {{f.at(1, 0, 0), kSlice0},
                                   {f.at(1, 1, 0), kSlice0},
                                   {f.at(0, 1, 0), kHtis},
                                   {f.at(3, 0, 0), kSlice0},
                                   {f.at(0, 0, 1), kSlice0}};
  PatternAllocator alloc(f.machine);
  int id = alloc.install(0, dests);

  net::NetworkClient::SendArgs args;
  args.multicastPattern = id;
  args.counterId = 1;
  f.machine.client({0, kSlice0}).post(args);
  f.sim.run();

  for (const auto& d : dests)
    EXPECT_EQ(f.machine.client(d).counterValue(1), 1u)
        << "node " << d.node << " client " << d.client;
  EXPECT_EQ(f.machine.stats().packetsDelivered, dests.size());
  EXPECT_EQ(f.machine.stats().packetsInjected, 1u);
}

TEST(PatternAllocator, DisjointTreesShareAnId) {
  // Two sources far apart get the same pattern id (footprints disjoint).
  Fixture f;
  PatternAllocator alloc(f.machine);
  int a = alloc.install(f.at(0, 0, 0), {{f.at(1, 0, 0), kSlice0}});
  int b = alloc.install(f.at(0, 2, 2), {{f.at(1, 2, 2), kSlice0}});
  EXPECT_EQ(a, b);
}

TEST(PatternAllocator, OverlappingTreesGetDistinctIds) {
  Fixture f;
  PatternAllocator alloc(f.machine);
  int a = alloc.install(0, {{f.at(1, 0, 0), kSlice0}});
  int b = alloc.install(0, {{f.at(2, 0, 0), kSlice0}});
  EXPECT_NE(a, b);
}

TEST(PatternAllocator, ExhaustionThrows) {
  Fixture f;
  PatternAllocator alloc(f.machine, 0, 2);  // only three ids available
  alloc.install(0, {{f.at(1, 0, 0), kSlice0}});
  alloc.install(0, {{f.at(1, 0, 0), kHtis}});
  alloc.install(0, {{f.at(1, 0, 0), net::kSlice1}});
  EXPECT_THROW(alloc.install(0, {{f.at(1, 0, 0), net::kSlice2}}),
               std::runtime_error);
}

TEST(Neighborhood, FullTorusHas26Neighbors) {
  util::TorusShape s{4, 4, 4};
  for (int i : {0, 13, 63}) {
    EXPECT_EQ(torusNeighborhood26(s, i).size(), 26u) << "node " << i;
  }
}

TEST(Neighborhood, SmallTorusCollapsesDuplicates) {
  // In a 2x2x2 torus, +1 and -1 wrap to the same node: 7 distinct neighbors.
  util::TorusShape s{2, 2, 2};
  EXPECT_EQ(torusNeighborhood26(s, 0).size(), 7u);
  // A 1x4x4 torus: dx always wraps to self-plane; 8 distinct neighbors.
  util::TorusShape t{1, 4, 4};
  EXPECT_EQ(torusNeighborhood26(t, 0).size(), 8u);
}

TEST(Neighborhood, SyncDeliversToAllNeighbors) {
  Fixture f;
  PatternAllocator alloc(f.machine);
  const int ctr = 5;
  NeighborhoodSync sync(f.machine, alloc, ctr);

  // Every node signals once; every node then expects 26 flushes.
  for (int n = 0; n < f.machine.numNodes(); ++n) sync.signal(n);
  int completed = 0;
  auto waiter = [](Fixture& fx, NeighborhoodSync& s, int n, int& done) -> Task {
    co_await fx.machine.client({n, kSlice0})
        .waitCounter(s.counterId(), s.neighbors(n).size());
    ++done;
  };
  for (int n = 0; n < f.machine.numNodes(); ++n)
    f.sim.spawn(waiter(f, sync, n, completed));
  f.sim.run();
  EXPECT_EQ(completed, f.machine.numNodes());
  for (int n = 0; n < f.machine.numNodes(); ++n)
    EXPECT_EQ(f.machine.client({n, kSlice0}).counterValue(ctr), 26u);
}

TEST(Neighborhood, FlushLatencyIsSubMicrosecond) {
  // SC10 §IV-B5 reports 0.56 us for the migration synchronization step; the
  // model's farthest (diagonal) neighbor flush lands well under 1 us.
  Fixture f;
  PatternAllocator alloc(f.machine);
  NeighborhoodSync sync(f.machine, alloc, 5);
  double doneNs = -1;
  auto waiter = [](Fixture& fx, NeighborhoodSync& s, double& t) -> Task {
    co_await fx.machine.client({0, kSlice0})
        .waitCounter(s.counterId(), s.neighbors(0).size());
    t = sim::toNs(fx.sim.now());
  };
  f.sim.spawn(waiter(f, sync, doneNs));
  for (int nb : sync.neighbors(0)) sync.signal(nb);
  f.sim.run();
  EXPECT_GT(doneNs, 162.0);
  EXPECT_LT(doneNs, 1000.0);
}

/// A schedule with one wait, (slice 0, counter 7), on every node of `f`.
CountedSchedule oneWaitSchedule(const Fixture& f) {
  CountedSchedule s;
  s.numNodes = f.machine.numNodes();
  s.waits.push_back({kSlice0, 7});
  return s;
}

TEST(CountedSchedule, MulticastArrivalsAreTheInstalledTablesReceivers) {
  Fixture f;
  PatternAllocator alloc(f.machine);
  const std::vector<ClientAddr> dests = {{f.at(1, 0, 0), kSlice0},
                                         {f.at(2, 0, 0), kSlice0},
                                         {f.at(0, 3, 0), kSlice0}};
  const int id = alloc.install(0, dests);
  CountedSchedule s = oneWaitSchedule(f);
  s.sends.push_back({.srcNode = 0, .counterId = 7, .pattern = id, .packets = 3});
  s.transpose(&f.machine);
  for (int n = 0; n < f.machine.numNodes(); ++n) {
    const bool dest = n == f.at(1, 0, 0) || n == f.at(2, 0, 0) ||
                      n == f.at(0, 3, 0);
    const auto arrivals = s.arrivals(n, 0);
    ASSERT_EQ(arrivals.size(), dest ? 1u : 0u) << "node " << n;
    if (dest) {
      EXPECT_EQ(arrivals[0].src, 0);
      EXPECT_EQ(arrivals[0].packets, 3u);
    }
  }
}

TEST(CountedSchedule, CountedUnicastWithoutAWaitThrows) {
  Fixture f;
  CountedSchedule s = oneWaitSchedule(f);
  // Slice 0 waits on counter 7; this write bumps counter 8 there.
  s.sends.push_back({.srcNode = 0, .counterId = 8, .dst = {1, kSlice0}});
  EXPECT_THROW(s.transpose(&f.machine), std::logic_error);
  // And one to the right counter on a client without the wait.
  CountedSchedule t = oneWaitSchedule(f);
  t.sends.push_back({.srcNode = 0, .counterId = 7, .dst = {1, kHtis}});
  EXPECT_THROW(t.transpose(&f.machine), std::logic_error);
}

TEST(CountedSchedule, CountedMulticastWithoutASourceRowThrows) {
  // A send must never be declared with zero arrivals: pattern 9 has no row
  // at node 0 (it is installed elsewhere only), so its multicast from node
  // 0 reaches nobody.
  Fixture f;
  f.machine.setMulticastPattern(f.at(1, 0, 0), 9,
                                {.clientMask = std::uint8_t(1u << kSlice0)});
  CountedSchedule s = oneWaitSchedule(f);
  s.sends.push_back({.srcNode = 0, .counterId = 7, .pattern = 9});
  EXPECT_THROW(s.transpose(&f.machine), std::logic_error);
  // Without a machine there are no tables to read at all.
  CountedSchedule t = oneWaitSchedule(f);
  t.sends.push_back({.srcNode = f.at(1, 0, 0), .counterId = 7, .pattern = 9});
  EXPECT_THROW(t.transpose(nullptr), std::logic_error);
  // The same send from the node that has the row is counted.
  CountedSchedule u = oneWaitSchedule(f);
  u.sends.push_back({.srcNode = f.at(1, 0, 0), .counterId = 7, .pattern = 9});
  u.transpose(&f.machine);
  EXPECT_EQ(u.arrivals(f.at(1, 0, 0), 0).size(), 1u);
}

}  // namespace
}  // namespace anton::core
