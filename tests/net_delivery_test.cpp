// Functional delivery semantics: remote writes commit payload bytes, counted
// writes bump the named counter, accumulation memories add 4-byte-wise,
// FIFOs queue arbitrary messages, and multicast fans out along the
// precomputed table entries.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "net/machine.hpp"
#include "sim/simulator.hpp"

namespace anton::net {
namespace {

using sim::Task;

struct Fixture {
  sim::Simulator sim;
  Machine machine;
  explicit Fixture(util::TorusShape shape = {4, 4, 4}, MachineConfig cfg = {})
      : machine(sim, shape, cfg) {}
};

TEST(Delivery, RemoteWriteCommitsPayload) {
  Fixture f;
  std::vector<std::uint8_t> data(64);
  std::iota(data.begin(), data.end(), std::uint8_t{1});
  NetworkClient::SendArgs args;
  args.dst = {5, kSlice2};
  args.counterId = 3;
  args.address = 1024;
  args.payload = makePayload(data.data(), data.size());
  f.machine.client({0, kSlice0}).post(args);
  f.sim.run();

  NetworkClient& dst = f.machine.client({5, kSlice2});
  EXPECT_EQ(dst.counterValue(3), 1u);
  EXPECT_EQ(dst.counterValue(0), 0u);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(std::to_integer<std::uint8_t>(dst.memory()[1024 + i]), data[i]);
  }
}

TEST(Delivery, CountersAreCumulativeAcrossMessages) {
  Fixture f;
  NetworkClient::SendArgs args;
  args.dst = {1, kSlice0};
  args.counterId = 7;
  for (int i = 0; i < 5; ++i) f.machine.client({0, kSlice0}).post(args);
  f.sim.run();
  EXPECT_EQ(f.machine.client({1, kSlice0}).counterValue(7), 5u);
}

TEST(Delivery, WriteWithoutCounterBumpsNothing) {
  Fixture f;
  std::uint64_t v = 0xdeadbeef;
  NetworkClient::SendArgs args;
  args.dst = {1, kSlice0};
  args.counterId = kNoCounter;
  args.address = 16;
  args.payload = makePayload(&v, sizeof v);
  f.machine.client({0, kSlice0}).post(args);
  f.sim.run();
  NetworkClient& dst = f.machine.client({1, kSlice0});
  for (int c = 0; c < dst.numCounters(); ++c) EXPECT_EQ(dst.counterValue(c), 0u);
  EXPECT_EQ(dst.read<std::uint64_t>(16), v);
}

TEST(Delivery, AccumulationAddsFourByteWise) {
  Fixture f;
  AccumulationMemory& acc = f.machine.accum(2, 0);
  std::int32_t init[2] = {100, -50};
  acc.hostWrite(0, init, sizeof init);

  std::int32_t add1[2] = {7, 3};
  std::int32_t add2[2] = {-10, 40};
  NetworkClient::SendArgs args;
  args.type = PacketType::kAccum;
  args.dst = {2, kAccum0};
  args.counterId = 1;
  args.payload = makePayload(add1, sizeof add1);
  f.machine.client({0, kSlice0}).post(args);
  args.payload = makePayload(add2, sizeof add2);
  f.machine.client({1, kSlice1}).post(args);
  f.sim.run();

  EXPECT_EQ(acc.read<std::int32_t>(0), 97);
  EXPECT_EQ(acc.read<std::int32_t>(4), -7);
  EXPECT_EQ(acc.counterValue(1), 2u);
}

TEST(Delivery, AccumulationIsOrderIndependent) {
  // Integer accumulation commutes: any arrival order yields the same sum.
  std::int64_t total = 0;
  for (int trial = 0; trial < 3; ++trial) {
    MachineConfig cfg;
    cfg.adaptiveRouting = trial % 2 == 0;
    Fixture f({4, 4, 4}, cfg);
    NetworkClient::SendArgs args;
    args.type = PacketType::kAccum;
    args.dst = {0, kAccum1};
    args.counterId = 0;
    for (int i = 0; i < 20; ++i) {
      std::int32_t v = (i * 37) % 13 - 6;
      args.payload = makePayload(&v, 4);
      f.machine.client({(i % 3) + 1, kSlice0}).post(args);
    }
    f.sim.run();
    std::int64_t sum = f.machine.accum(0, 1).read<std::int32_t>(0);
    if (trial == 0) total = sum;
    EXPECT_EQ(sum, total);
  }
}

TEST(Delivery, AccumToNonAccumClientThrows) {
  Fixture f;
  NetworkClient::SendArgs args;
  args.type = PacketType::kAccum;
  args.dst = {1, kSlice0};
  std::int32_t v = 1;
  args.payload = makePayload(&v, 4);
  f.machine.client({0, kSlice0}).post(args);
  EXPECT_THROW(f.sim.run(), std::logic_error);
}

TEST(Delivery, MisalignedAccumulationThrows) {
  Fixture f;
  NetworkClient::SendArgs args;
  args.type = PacketType::kAccum;
  args.dst = {1, kAccum0};
  args.address = 2;  // not 4-byte aligned
  std::int32_t v = 1;
  args.payload = makePayload(&v, 4);
  f.machine.client({0, kSlice0}).post(args);
  EXPECT_THROW(f.sim.run(), std::logic_error);
}

TEST(Delivery, AccumulationMemoryCannotSend) {
  Fixture f;
  NetworkClient::SendArgs args;
  args.dst = {1, kSlice0};
  EXPECT_THROW(f.machine.accum(0, 0).post(args), std::logic_error);
}

TEST(Delivery, OutOfRangeWriteThrows) {
  Fixture f;
  NetworkClient::SendArgs args;
  args.dst = {1, kSlice0};
  args.address = std::uint32_t(f.machine.client({1, kSlice0}).memoryBytes() - 4);
  std::uint64_t v = 0;
  args.payload = makePayload(&v, 8);
  f.machine.client({0, kSlice0}).post(args);
  EXPECT_THROW(f.sim.run(), std::out_of_range);
}

TEST(Delivery, InjectRejectsAddressesOutsideTheMachine) {
  // Every bad address is refused before the machine touches any per-node
  // state: no salt drawn, no ring reserved, nothing scheduled or counted.
  Fixture f({8, 8, 8});
  auto packet = [](ClientAddr src, ClientAddr dst) {
    PacketPtr p = allocatePacket();
    p->src = src;
    p->dst = dst;
    p->counterId = 0;
    return p;
  };
  const std::vector<std::pair<ClientAddr, ClientAddr>> bad = {
      {{0, kSlice0}, {600, kSlice0}},  // once wrapped onto node 88
      {{0, kSlice0}, {512, kSlice0}},
      {{0, kSlice0}, {-1, kSlice0}},
      {{0, kSlice0}, {1, kClientsPerNode}},
      {{0, kSlice0}, {1, -1}},
      {{0, 9}, {1, kSlice0}},  // once read clientRouter[9]
      {{0, -1}, {1, kSlice0}},
      {{512, kSlice0}, {1, kSlice0}},  // once wrote saltByNode_[512]
      {{-3, kSlice0}, {1, kSlice0}},
  };
  for (const auto& [src, dst] : bad) {
    EXPECT_THROW(f.machine.inject(packet(src, dst)), std::out_of_range)
        << "src {" << src.node << "," << src.client << "} dst {" << dst.node
        << "," << dst.client << "}";
  }
  EXPECT_TRUE(f.sim.empty());
  EXPECT_EQ(f.machine.stats().packetsInjected, 0u);
  EXPECT_EQ(f.machine.node(0).ringBusyUntil(), 0);

  // The machine is untouched: node 0's first good packet draws salt 0, and
  // node 88 (where node 600 used to alias) never sees a counted write.
  PacketPtr good = packet({0, kSlice0}, {1, kSlice0});
  f.machine.inject(good);
  EXPECT_EQ(good->routeSalt, 0u);
  f.sim.run();
  EXPECT_EQ(f.machine.client({1, kSlice0}).counterValue(0), 1u);
  EXPECT_EQ(f.machine.client({88, kSlice0}).counterValue(0), 0u);
  EXPECT_EQ(f.machine.stats().packetsDelivered, 1u);

  // A multicast packet's dst is ignored, so it is not validated.
  MulticastEntry e;
  e.clientMask = 1u << kSlice1;
  f.machine.setMulticastPattern(0, 3, e);
  PacketPtr mc = packet({0, kSlice0}, {600, 9});
  mc->multicastPattern = 3;
  EXPECT_NO_THROW(f.machine.inject(mc));
  f.sim.run();
  EXPECT_EQ(f.machine.client({0, kSlice1}).counterValue(0), 1u);
}

Task fifoReader(Machine& m, ClientAddr a, int n, std::vector<std::uint32_t>& out) {
  ProcessingSlice& s = static_cast<ProcessingSlice&>(m.client(a));
  for (int i = 0; i < n; ++i) {
    PacketPtr p = co_await s.receiveFifo();
    std::uint32_t v;
    std::memcpy(&v, p->payload->data(), 4);
    out.push_back(v);
  }
}

TEST(Delivery, FifoDeliversMessagesInOrder) {
  Fixture f;
  std::vector<std::uint32_t> got;
  f.sim.spawn(fifoReader(f.machine, {1, kSlice0}, 4, got));
  NetworkClient::SendArgs args;
  args.type = PacketType::kFifo;
  args.dst = {1, kSlice0};
  args.inOrder = true;
  for (std::uint32_t v : {10u, 20u, 30u, 40u}) {
    args.payload = makePayload(&v, 4);
    f.machine.client({0, kSlice0}).post(args);
  }
  f.sim.run();
  EXPECT_EQ(got, (std::vector<std::uint32_t>{10, 20, 30, 40}));
}

TEST(Delivery, FifoReaderBlocksUntilMessageArrives) {
  Fixture f;
  std::vector<std::uint32_t> got;
  f.sim.spawn(fifoReader(f.machine, {1, kSlice0}, 1, got));
  f.sim.runUntil(sim::us(1));
  EXPECT_TRUE(got.empty());
  NetworkClient::SendArgs args;
  args.type = PacketType::kFifo;
  args.dst = {1, kSlice0};
  std::uint32_t v = 99;
  args.payload = makePayload(&v, 4);
  f.machine.client({0, kSlice0}).post(args);
  f.sim.run();
  EXPECT_EQ(got, std::vector<std::uint32_t>{99});
}

TEST(Delivery, FifoToNonSliceThrows) {
  Fixture f;
  NetworkClient::SendArgs args;
  args.type = PacketType::kFifo;
  args.dst = {1, kHtis};
  f.machine.client({0, kSlice0}).post(args);
  EXPECT_THROW(f.sim.run(), std::logic_error);
}

TEST(Delivery, FifoTracksHighWaterMark) {
  Fixture f;
  NetworkClient::SendArgs args;
  args.type = PacketType::kFifo;
  args.dst = {1, kSlice1};
  for (int i = 0; i < 6; ++i) f.machine.client({0, kSlice0}).post(args);
  f.sim.run();
  ProcessingSlice& s = f.machine.slice(1, 1);
  EXPECT_EQ(s.fifoDepth(), 6u);
  EXPECT_EQ(s.fifoHighWater(), 6u);
}

TEST(Multicast, DeliversToLocalClientsAndForwards) {
  // Pattern: at the source node deliver to HTIS and forward +X; at the
  // +X neighbor deliver to HTIS only.
  Fixture f;
  const int pat = 17;
  MulticastEntry atSrc;
  atSrc.clientMask = std::uint8_t(1u << kHtis);
  atSrc.linkMask = std::uint8_t(1u << RingLayout::adapterIndex(0, +1));
  f.machine.setMulticastPattern(0, pat, atSrc);
  MulticastEntry atNext;
  atNext.clientMask = std::uint8_t(1u << kHtis);
  f.machine.setMulticastPattern(1, pat, atNext);

  NetworkClient::SendArgs args;
  args.multicastPattern = pat;
  args.counterId = 2;
  std::uint32_t v = 7;
  args.payload = makePayload(&v, 4);
  f.machine.client({0, kSlice0}).post(args);
  f.sim.run();

  EXPECT_EQ(f.machine.htis(0).counterValue(2), 1u);
  EXPECT_EQ(f.machine.htis(1).counterValue(2), 1u);
  EXPECT_EQ(f.machine.htis(0).read<std::uint32_t>(0), 7u);
  EXPECT_EQ(f.machine.htis(1).read<std::uint32_t>(0), 7u);
  // One injection, two deliveries, one link crossing, one fork.
  EXPECT_EQ(f.machine.stats().packetsInjected, 1u);
  EXPECT_EQ(f.machine.stats().packetsDelivered, 2u);
  EXPECT_EQ(f.machine.stats().linkTraversals, 1u);
  EXPECT_EQ(f.machine.stats().multicastForks, 1u);
}

TEST(Multicast, ChainAlongDimensionReachesAllNodes) {
  // A +X chain of length 3: each node delivers locally and forwards on.
  Fixture f({4, 1, 1});
  const int pat = 1;
  for (int n = 0; n < 3; ++n) {
    MulticastEntry e;
    e.clientMask = std::uint8_t(1u << kSlice0);
    if (n < 2) e.linkMask = std::uint8_t(1u << RingLayout::adapterIndex(0, +1));
    f.machine.setMulticastPattern(n + 1, pat, e);
  }
  MulticastEntry start;
  start.linkMask = std::uint8_t(1u << RingLayout::adapterIndex(0, +1));
  f.machine.setMulticastPattern(0, pat, start);

  NetworkClient::SendArgs args;
  args.multicastPattern = pat;
  args.counterId = 0;
  f.machine.client({0, kSlice1}).post(args);
  f.sim.run();
  for (int n = 1; n <= 3; ++n)
    EXPECT_EQ(f.machine.slice(n, 0).counterValue(0), 1u) << "node " << n;
  EXPECT_EQ(f.machine.slice(0, 0).counterValue(0), 0u);
}

TEST(Multicast, EmptyPatternThrows) {
  Fixture f;
  NetworkClient::SendArgs args;
  args.multicastPattern = 9;  // never installed
  // Injection routes synchronously at the source node, so the empty table
  // entry is detected immediately.
  EXPECT_THROW(f.machine.client({0, kSlice0}).post(args), std::logic_error);
}

TEST(Multicast, SenderOverheadIsOneInjection) {
  // Multicast to 5 nodes costs the sender one packet injection; replicas are
  // created in the network (SC10 III-A: lower sender overhead + bandwidth).
  Fixture f({8, 1, 1});
  const int pat = 3;
  for (int n = 0; n < 6; ++n) {
    MulticastEntry e;
    if (n > 0) e.clientMask = std::uint8_t(1u << kSlice0);
    if (n < 5) e.linkMask = std::uint8_t(1u << RingLayout::adapterIndex(0, +1));
    f.machine.setMulticastPattern(n, pat, e);
  }
  NetworkClient::SendArgs args;
  args.multicastPattern = pat;
  args.counterId = 0;
  f.machine.client({0, kSlice0}).post(args);
  f.sim.run();
  EXPECT_EQ(f.machine.stats().packetsInjected, 1u);
  EXPECT_EQ(f.machine.stats().packetsDelivered, 5u);
  // Unicast would need 1+2+3+4+5 = 15 link traversals; the chain uses 5.
  EXPECT_EQ(f.machine.stats().linkTraversals, 5u);
}

TEST(Send, CoroutineSendChargesInjectionOccupancyToCaller) {
  Fixture f;
  double freeAt = -1;
  auto sender = [](Fixture& fx, double& out) -> Task {
    NetworkClient::SendArgs args;
    args.dst = {1, kSlice0};
    args.counterId = 0;
    co_await fx.machine.client({0, kSlice0}).send(args);
    out = sim::toNs(fx.sim.now());
  };
  f.sim.spawn(sender(f, freeAt));
  f.sim.run();
  // Pipelined injection: the caller is busy for the injection slot (11 ns
  // for a header-only packet), not the full 36 ns assembly latency.
  EXPECT_DOUBLE_EQ(freeAt, 11.0);
  EXPECT_EQ(f.machine.client({1, kSlice0}).counterValue(0), 1u);
}

TEST(Send, PayloadOver256BytesThrows) {
  EXPECT_THROW(makeZeroPayload(257), std::length_error);
  EXPECT_THROW(makePayload(nullptr, 300), std::length_error);
}

TEST(Wait, CounterWaitOnAlreadyReachedTargetStillCostsPoll) {
  Fixture f;
  NetworkClient::SendArgs args;
  args.dst = {1, kSlice0};
  args.counterId = 0;
  f.machine.client({0, kSlice0}).post(args);
  f.sim.run();

  double resumedAt = -1;
  auto waiter = [](Fixture& fx, double& out) -> Task {
    NetworkClient& c = fx.machine.client({1, kSlice0});
    double t0 = sim::toNs(fx.sim.now());
    co_await c.waitCounter(0, 1);
    out = sim::toNs(fx.sim.now()) - t0;
  };
  f.sim.spawn(waiter(f, resumedAt));
  f.sim.run();
  EXPECT_DOUBLE_EQ(resumedAt, 42.0);
}

TEST(Wait, MultipleWaitersAllWake) {
  Fixture f;
  int woke = 0;
  auto waiter = [](Fixture& fx, int& w) -> Task {
    co_await fx.machine.client({1, kSlice0}).waitCounter(0, 3);
    ++w;
  };
  for (int i = 0; i < 4; ++i) f.sim.spawn(waiter(f, woke));
  NetworkClient::SendArgs args;
  args.dst = {1, kSlice0};
  args.counterId = 0;
  for (int i = 0; i < 3; ++i) f.machine.client({0, kSlice0}).post(args);
  f.sim.run();
  EXPECT_EQ(woke, 4);
}

TEST(Wait, BadCounterIdThrows) {
  Fixture f;
  NetworkClient& c = f.machine.client({0, kSlice0});
  EXPECT_THROW(c.waitCounter(-1, 1), std::out_of_range);
  EXPECT_THROW(c.waitCounter(c.numCounters(), 1), std::out_of_range);
}

}  // namespace
}  // namespace anton::net
