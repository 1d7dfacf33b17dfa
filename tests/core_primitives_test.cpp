// Primitives not covered elsewhere: Gate joins, cumulative counter waits,
// arenas, and property sweeps of routing invariants across torus shapes.
#include <gtest/gtest.h>

#include "core/arena.hpp"
#include "net/machine.hpp"
#include "sim/gate.hpp"

namespace anton {
namespace {

using sim::Task;

TEST(Gate, WaitsForAllSpawnedTasks) {
  sim::Simulator sim;
  int done = 0;
  double joinedAt = -1;
  auto worker = [&](int delayNs) -> Task {
    co_await sim.delay(sim::ns(delayNs));
    ++done;
  };
  auto parent = [&]() -> Task {
    sim::Gate gate;
    gate.spawn(sim, worker(10));
    gate.spawn(sim, worker(50));
    gate.spawn(sim, worker(30));
    co_await gate.wait();
    joinedAt = sim::toNs(sim.now());
  };
  sim.spawn(parent());
  sim.run();
  EXPECT_EQ(done, 3);
  EXPECT_DOUBLE_EQ(joinedAt, 50.0);  // join at the slowest subtask
}

TEST(Gate, EmptyGateDoesNotBlock) {
  sim::Simulator sim;
  bool passed = false;
  auto parent = [&]() -> Task {
    sim::Gate gate;
    co_await gate.wait();
    passed = true;
  };
  sim.spawn(parent());
  sim.run();
  EXPECT_TRUE(passed);
}

// Synchronization counters are cumulative: firmware never resets them and
// waits on absolute thresholds, so round r of a K-packet phase completes at
// counter value K * r.
TEST(CounterWait, CumulativeThresholdsAcrossRounds) {
  sim::Simulator sim;
  net::Machine m(sim, {3, 1, 1});
  net::NetworkClient& rx = m.slice(1, 0);

  std::vector<double> roundDone;
  auto receiver = [&]() -> Task {
    for (std::uint64_t r = 1; r <= 3; ++r) {
      co_await rx.waitCounter(4, 3 * r);
      roundDone.push_back(sim::toNs(sim.now()));
    }
  };
  sim.spawn(receiver());
  auto sender = [&]() -> Task {
    for (int r = 0; r < 3; ++r) {
      for (int i = 0; i < 3; ++i) {
        net::NetworkClient::SendArgs args;
        args.dst = {1, net::kSlice0};
        args.counterId = 4;
        co_await m.slice(0, 0).send(args);
      }
      co_await sim.delay(sim::us(1));
    }
  };
  sim.spawn(sender());
  sim.run();
  ASSERT_EQ(roundDone.size(), 3u);
  EXPECT_LT(roundDone[0], roundDone[1]);
  EXPECT_LT(roundDone[1], roundDone[2]);
  EXPECT_EQ(rx.counterValue(4), 9u);
}

// A partial threshold resumes the receiver on the first packets of a round
// (overlap: start computing on partial data) well before the full one.
TEST(CounterWait, PartialThresholdResumesBeforeFull) {
  sim::Simulator sim;
  net::Machine m(sim, {3, 1, 1});
  net::NetworkClient& rx = m.slice(1, 0);
  double partialAt = -1, fullAt = -1;
  auto receiver = [&]() -> Task {
    co_await rx.waitCounter(4, 2);  // start work on the first two packets
    partialAt = sim::toNs(sim.now());
    co_await rx.waitCounter(4, 8);
    fullAt = sim::toNs(sim.now());
  };
  sim.spawn(receiver());
  auto sender = [&]() -> Task {
    for (int i = 0; i < 8; ++i) {
      net::NetworkClient::SendArgs args;
      args.dst = {1, net::kSlice0};
      args.counterId = 4;
      co_await m.slice(0, 0).send(args);
      co_await sim.delay(sim::ns(200));
    }
  };
  sim.spawn(sender());
  sim.run();
  EXPECT_GT(partialAt, 0);
  EXPECT_GT(fullAt, partialAt + 1000);  // overlap window was real
}

TEST(Arena, MemoryAlignmentAndExhaustion) {
  core::MemoryArena arena(100, 0);
  EXPECT_EQ(arena.alloc(10, 8), 0u);
  EXPECT_EQ(arena.alloc(1, 8), 16u);   // aligned past 10
  EXPECT_EQ(arena.alloc(4, 4), 20u);
  EXPECT_THROW(arena.alloc(100, 8), std::runtime_error);
}

TEST(Arena, CountersExhaust) {
  core::CounterArena arena(4, 1);
  EXPECT_EQ(arena.alloc(2), 1);
  EXPECT_EQ(arena.alloc(1), 3);
  EXPECT_THROW(arena.alloc(1), std::runtime_error);
}

// ---- property sweep: routing invariants across torus shapes --------------

class TorusShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TorusShapes, EveryPairIsRoutableAndHopExact) {
  auto [nx, ny, nz] = GetParam();
  sim::Simulator sim;
  net::MachineConfig cfg;
  cfg.clientMemBytes = 4 << 10;
  cfg.countersPerClient = 4;
  net::Machine m(sim, {nx, ny, nz}, cfg);

  // Send from node 0 to every node; each must arrive, and the link
  // traversal count must equal the sum of shortest-path hops.
  net::NetworkClient::SendArgs args;
  args.counterId = 0;
  args.inOrder = true;
  std::uint64_t expectedHops = 0;
  for (int n = 0; n < m.numNodes(); ++n) {
    args.dst = {n, net::kSlice0};
    m.slice(0, 1).post(args);
    expectedHops += std::uint64_t(m.hops(0, n));
  }
  sim.run();
  EXPECT_EQ(m.stats().packetsDelivered, std::uint64_t(m.numNodes()));
  EXPECT_EQ(m.stats().linkTraversals, expectedHops);
  for (int n = 0; n < m.numNodes(); ++n)
    EXPECT_EQ(m.slice(n, 0).counterValue(0), 1u) << "node " << n;
}

TEST_P(TorusShapes, AdaptiveRoutingDeliversEverything) {
  auto [nx, ny, nz] = GetParam();
  sim::Simulator sim;
  net::MachineConfig cfg;
  cfg.clientMemBytes = 4 << 10;
  cfg.countersPerClient = 4;
  cfg.adaptiveRouting = true;
  net::Machine m(sim, {nx, ny, nz}, cfg);
  net::NetworkClient::SendArgs args;
  args.counterId = 1;
  for (int i = 0; i < 5; ++i) {
    for (int n = 0; n < m.numNodes(); ++n) {
      args.dst = {n, net::kSlice2};
      m.slice(n % m.numNodes(), 0).post(args);
    }
  }
  sim.run();
  for (int n = 0; n < m.numNodes(); ++n)
    EXPECT_EQ(m.slice(n, 2).counterValue(1), 5u) << "node " << n;
}

INSTANTIATE_TEST_SUITE_P(Shapes, TorusShapes,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{2, 1, 1},
                                           std::tuple{4, 1, 1},
                                           std::tuple{2, 2, 2},
                                           std::tuple{3, 3, 3},
                                           std::tuple{4, 2, 3},
                                           std::tuple{1, 5, 3},
                                           std::tuple{8, 8, 8}));

}  // namespace
}  // namespace anton
