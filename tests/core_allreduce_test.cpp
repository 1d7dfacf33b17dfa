// Dimension-ordered and butterfly all-reduce: correctness, determinism,
// repeatability, and latency sanity against the paper's Table 2.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <tuple>

#include "core/allreduce.hpp"
#include "sim/simulator.hpp"
#include "verify/checks.hpp"

namespace anton::core {
namespace {

using sim::Task;

struct Fixture {
  sim::Simulator sim;
  net::Machine machine;
  explicit Fixture(util::TorusShape shape) : machine(sim, shape, {}) {}
};

// Run one collective all-reduce where node i contributes f(i); returns the
// per-node results and the max completion time in microseconds.
template <typename Reducer, typename F>
std::pair<std::vector<std::vector<double>>, double> collect(Fixture& f,
                                                            Reducer& red,
                                                            std::size_t words,
                                                            F contribute) {
  int n = f.machine.numNodes();
  std::vector<std::vector<double>> results(static_cast<std::size_t>(n));
  double t0 = sim::toUs(f.sim.now());
  double maxDone = t0;
  auto task = [&](int node) -> Task {
    std::vector<double> in(words);
    for (std::size_t w = 0; w < words; ++w) in[w] = contribute(node, w);
    co_await red.run(node, std::move(in), &results[std::size_t(node)]);
    maxDone = std::max(maxDone, sim::toUs(f.sim.now()));
  };
  for (int i = 0; i < n; ++i) f.sim.spawn(task(i));
  f.sim.run();
  return {results, maxDone - t0};
}

TEST(DimOrderedAllReduce, SumsAcross512Nodes) {
  Fixture f({8, 8, 8});
  DimOrderedAllReduce red(f.machine);
  auto [results, us] =
      collect(f, red, 4, [](int node, std::size_t w) { return node * 0.5 + double(w); });
  double n = 512;
  for (int node = 0; node < 512; ++node) {
    ASSERT_EQ(results[std::size_t(node)].size(), 4u);
    for (std::size_t w = 0; w < 4; ++w) {
      double expect = 0.5 * (n * (n - 1) / 2) + double(w) * n;
      EXPECT_DOUBLE_EQ(results[std::size_t(node)][w], expect)
          << "node " << node << " word " << w;
    }
  }
}

TEST(DimOrderedAllReduce, AllNodesGetBitIdenticalResults) {
  Fixture f({4, 4, 2});
  DimOrderedAllReduce red(f.machine);
  // Values chosen to be FP-order-sensitive.
  auto [results, us] = collect(f, red, 3, [](int node, std::size_t w) {
    return std::pow(10.0, (node % 7) - 3) + 1e-13 * node + double(w);
  });
  for (int node = 1; node < f.machine.numNodes(); ++node) {
    for (std::size_t w = 0; w < 3; ++w) {
      EXPECT_EQ(results[std::size_t(node)][w], results[0][w])
          << "node " << node;
    }
  }
}

TEST(DimOrderedAllReduce, RepeatedCallsKeepWorking) {
  // Cumulative counters and parity double-buffering across 5 rounds.
  Fixture f({4, 2, 2});
  DimOrderedAllReduce red(f.machine);
  for (int round = 1; round <= 5; ++round) {
    auto [results, us] = collect(
        f, red, 1, [round](int node, std::size_t) { return double(node * round); });
    double expect = double(round) * (16.0 * 15.0 / 2.0);
    for (int node = 0; node < 16; ++node)
      EXPECT_DOUBLE_EQ(results[std::size_t(node)][0], expect) << "round " << round;
  }
}

TEST(DimOrderedAllReduce, Table2LatencyShape) {
  // Paper Table 2: 512-node 0-byte reduction 1.32 us, 32-byte 1.77 us.
  // The model should land in the same regime (~1-2 us) and grow with
  // machine size and payload.
  Fixture f512({8, 8, 8});
  DimOrderedAllReduce red512(f512.machine);
  auto [r0, us0] = collect(f512, red512, 0, [](int, std::size_t) { return 0.0; });
  auto [r32, us32] = collect(f512, red512, 4, [](int, std::size_t) { return 1.0; });
  EXPECT_GT(us0, 0.8);
  EXPECT_LT(us0, 1.8);
  EXPECT_GT(us32, us0);
  EXPECT_LT(us32, 2.4);

  Fixture f64({4, 4, 4});
  DimOrderedAllReduce red64(f64.machine);
  auto [r64, us64] = collect(f64, red64, 0, [](int, std::size_t) { return 0.0; });
  EXPECT_LT(us64, us0);  // smaller machine, lower latency
}

TEST(DimOrderedAllReduce, BarrierCompletesOnAllNodes) {
  Fixture f({4, 4, 4});
  DimOrderedAllReduce red(f.machine);
  int done = 0;
  auto task = [&](int node) -> Task {
    co_await red.barrier(node);
    ++done;
  };
  for (int i = 0; i < 64; ++i) f.sim.spawn(task(i));
  f.sim.run();
  EXPECT_EQ(done, 64);
}

TEST(DimOrderedAllReduce, DegenerateDimensionsAreSkipped) {
  Fixture f({4, 1, 1});
  DimOrderedAllReduce red(f.machine);
  auto [results, us] =
      collect(f, red, 2, [](int node, std::size_t w) { return double(node + 1) * (w + 1); });
  for (int node = 0; node < 4; ++node) {
    EXPECT_DOUBLE_EQ(results[std::size_t(node)][0], 10.0);
    EXPECT_DOUBLE_EQ(results[std::size_t(node)][1], 20.0);
  }
}

TEST(DimOrderedAllReduce, OversizedPayloadThrows) {
  Fixture f({2, 2, 2});
  DimOrderedAllReduce red(f.machine);
  std::vector<double> big(net::kMaxPayloadBytes / sizeof(double) + 1);
  EXPECT_THROW(
      {
        auto t = red.run(0, big, nullptr);
        f.sim.spawn(std::move(t));
        f.sim.run();
      },
      std::length_error);
}

TEST(DimOrderedAllReduce, PlanEqualsTraffic) {
  // The plan of one reduction describes the packets the live run really
  // sends: the per-source arrivals on every (node, client, counter) equal the
  // summed per-source expectations of the plan's waits there, and the plan
  // verifies clean. Shapes include one whose y dimension takes no part and
  // odd extents, where a line's forward and backward chains differ in
  // length.
  for (util::TorusShape shape :
       {util::TorusShape{4, 4, 4}, util::TorusShape{4, 1, 2},
        util::TorusShape{3, 5, 2}}) {
    for (bool armed : {false, true}) {
      SCOPED_TRACE(std::to_string(shape.nx) + "x" + std::to_string(shape.ny) +
                   "x" + std::to_string(shape.nz) +
                   (armed ? " armed" : " disarmed"));
      Fixture f(shape);
      DimOrderedAllReduce red(f.machine);
      DropRegistry reg(f.machine);
      RecoveryStats stats;
      if (armed) {
        RecoveryHooks hooks;
        hooks.registry = &reg;
        hooks.config.timeout = sim::us(100);
        hooks.stats = &stats;
        red.setRecovery(hooks);
      }
      verify::CommPlan plan;
      plan.shape = shape;
      red.appendPlan(plan, "start");
      const verify::VerifyResult verdict = verify::verifyPlan(plan);
      EXPECT_TRUE(verdict.ok()) << verdict.violations.front().check << ": "
                                << verdict.violations.front().detail;

      using Key = std::tuple<int, int, int>;  // node, client, counter
      std::map<Key, std::map<int, std::uint64_t>> want, before;
      for (const verify::CounterExpectation& e : plan.expectations) {
        EXPECT_EQ(e.recoveryArmed, armed) << plan.nameOf(e.site);
        auto& w = want[{e.client.node, e.client.client, e.counterId}];
        for (const auto& [src, packets] : plan.bySource(e))
          if (packets > 0) w[src] += packets;
      }
      auto sources = [&](const Key& k) {
        const auto [node, client, counter] = k;
        return f.machine.client({node, client}).counterSources(counter);
      };
      for (const auto& [k, w] : want) before[k] = sources(k);
      collect(f, red, 4, [](int node, std::size_t w) { return node + 0.5 * w; });
      for (const auto& [k, w] : want) {
        std::map<int, std::uint64_t> delta;
        for (const auto& [src, total] : sources(k))
          if (total > before[k][src]) delta[src] = total - before[k][src];
        const auto [node, client, counter] = k;
        EXPECT_EQ(delta, w) << "node " << node << " client " << client
                            << " counter " << counter;
      }
      EXPECT_EQ(stats.timeouts, 0u);
    }
  }
}

TEST(ButterflyAllReduce, MatchesDimOrderedSum) {
  Fixture f({4, 4, 2});
  AllReduceConfig bCfg;
  bCfg.counterId = 210;  // keep clear of the dim-ordered counter
  bCfg.memBase = 0x20000;
  ButterflyAllReduce red(f.machine, bCfg);
  auto [results, us] =
      collect(f, red, 2, [](int node, std::size_t w) { return node + 0.25 * double(w); });
  double n = 32;
  for (int node = 0; node < 32; ++node) {
    EXPECT_DOUBLE_EQ(results[std::size_t(node)][0], n * (n - 1) / 2);
    EXPECT_DOUBLE_EQ(results[std::size_t(node)][1], n * (n - 1) / 2 + 0.25 * n);
  }
}

TEST(ButterflyAllReduce, SlowerThanDimOrderedOnBigTorus) {
  // The paper's point: butterfly needs 3*log2(N) rounds and 3(N-1) hops vs.
  // 3 rounds and 3N/2 hops for dimension-ordered.
  Fixture a({8, 8, 8});
  DimOrderedAllReduce dimRed(a.machine);
  auto [r1, usDim] = collect(a, dimRed, 4, [](int n, std::size_t) { return double(n); });

  Fixture b({8, 8, 8});
  ButterflyAllReduce bfly(b.machine);
  auto [r2, usBfly] = collect(b, bfly, 4, [](int n, std::size_t) { return double(n); });

  EXPECT_EQ(r1[0][0], r2[0][0]);
  EXPECT_GT(usBfly, usDim);
}

TEST(ButterflyAllReduce, NonPowerOfTwoThrows) {
  Fixture f({3, 2, 2});
  EXPECT_THROW(ButterflyAllReduce red(f.machine), std::invalid_argument);
}

TEST(ButterflyAllReduce, RepeatedCallsKeepWorking) {
  Fixture f({2, 2, 2});
  ButterflyAllReduce red(f.machine);
  for (int round = 1; round <= 4; ++round) {
    auto [results, us] =
        collect(f, red, 1, [round](int node, std::size_t) { return double(node + round); });
    double expect = 8.0 * round + 28.0;
    for (int node = 0; node < 8; ++node)
      EXPECT_DOUBLE_EQ(results[std::size_t(node)][0], expect);
  }
}

}  // namespace
}  // namespace anton::core
