// Machine memory: every client's local memory is a view into one lazily
// committed mapping, and counter banks are allocated on first use. These
// tests pin what that must not change — memory reads as zero until written
// (also in a machine built where a previous one dirtied memory), neighbouring
// clients never alias, untouched counters read as zero, bad ids still throw —
// and that bad shapes and sizes fail before anything is mapped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "net/machine.hpp"
#include "sim/simulator.hpp"

namespace anton::net {
namespace {

bool allZero(std::span<const std::byte> mem) {
  return std::all_of(mem.begin(), mem.end(),
                     [](std::byte b) { return b == std::byte{0}; });
}

TEST(MachineMemory, SecondMachineReadsZeroWhereTheFirstWrote) {
  const util::TorusShape shape{4, 4, 4};
  std::vector<ClientAddr> dirtied;
  {
    sim::Simulator sim;
    Machine m(sim, shape);
    const std::vector<std::byte> ones(m.client({0, kSlice0}).memoryBytes(),
                                      std::byte{0xff});
    for (int n = 0; n < m.numNodes(); n += 5) {
      for (int c = 0; c < kClientsPerNode; c += 3) {
        m.client({n, c}).hostWrite(0, ones.data(), ones.size());
        dirtied.push_back({n, c});
      }
    }
    // And one packet-delivered write, through the remote-write path.
    std::uint64_t v = ~std::uint64_t{0};
    NetworkClient::SendArgs args;
    args.dst = {1, kHtis};
    args.address = 512;
    args.payload = makePayload(&v, sizeof v);
    m.client({0, kSlice0}).post(args);
    sim.run();
    ASSERT_EQ(m.client({1, kHtis}).read<std::uint64_t>(512), v);
    dirtied.push_back({1, kHtis});
  }
  sim::Simulator sim;
  Machine m(sim, shape);
  for (ClientAddr a : dirtied)
    EXPECT_TRUE(allZero(m.client(a).memory()))
        << "node " << a.node << " client " << a.client;
}

TEST(MachineMemory, AdjacentClientsDoNotAlias) {
  sim::Simulator sim;
  MachineConfig cfg;
  cfg.clientMemBytes = 4 << 10;
  Machine m(sim, {2, 1, 1}, cfg);
  const auto last = std::uint32_t(cfg.clientMemBytes - 1);
  // Every client's last byte and first byte get distinct values, so a
  // client boundary off by one — within a node or across the node boundary
  // (node 0's last client, node 1's first) — would overwrite a neighbour.
  auto tag = [](ClientAddr a, bool first) {
    return std::uint8_t(1 + 2 * (a.node * kClientsPerNode + a.client) +
                        (first ? 1 : 0));
  };
  for (int n = 0; n < m.numNodes(); ++n) {
    for (int c = 0; c < kClientsPerNode; ++c) {
      std::uint8_t lo = tag({n, c}, true), hi = tag({n, c}, false);
      m.client({n, c}).hostWrite(0, &lo, 1);
      m.client({n, c}).hostWrite(last, &hi, 1);
    }
  }
  for (int n = 0; n < m.numNodes(); ++n) {
    for (int c = 0; c < kClientsPerNode; ++c) {
      const NetworkClient& cl = m.client({n, c});
      EXPECT_EQ(cl.read<std::uint8_t>(0), tag({n, c}, true));
      EXPECT_EQ(cl.read<std::uint8_t>(last), tag({n, c}, false));
      EXPECT_TRUE(allZero(cl.memory().subspan(1, last - 1)));
    }
  }
  // The range checks still stop at each client's own end.
  std::uint8_t b = 0;
  EXPECT_THROW(m.client({0, kAccum1}).hostWrite(last + 1, &b, 1),
               std::out_of_range);
  EXPECT_THROW((void)m.client({0, kAccum1}).read<std::uint8_t>(last + 1),
               std::out_of_range);
}

TEST(MachineMemory, RemoteWritesAtClientEdgesStayInTheirClient) {
  sim::Simulator sim;
  MachineConfig cfg;
  cfg.clientMemBytes = 4 << 10;
  Machine m(sim, {2, 1, 1}, cfg);
  const auto lastWord = std::uint32_t(cfg.clientMemBytes - 4);
  auto put = [&](ClientAddr dst, std::uint32_t address, std::uint32_t v) {
    NetworkClient::SendArgs args;
    args.dst = dst;
    args.address = address;
    args.payload = makePayload(&v, sizeof v);
    m.client({0, kSlice0}).post(args);
  };
  put({0, kAccum1}, lastWord, 0x11111111u);  // last word of node 0
  put({1, kSlice0}, 0, 0x22222222u);         // first word of node 1
  put({1, kSlice2}, lastWord, 0x33333333u);
  put({1, kSlice3}, 0, 0x44444444u);
  sim.run();
  EXPECT_EQ(m.client({0, kAccum1}).read<std::uint32_t>(lastWord), 0x11111111u);
  EXPECT_EQ(m.client({1, kSlice0}).read<std::uint32_t>(0), 0x22222222u);
  EXPECT_EQ(m.client({1, kSlice2}).read<std::uint32_t>(lastWord), 0x33333333u);
  EXPECT_EQ(m.client({1, kSlice3}).read<std::uint32_t>(0), 0x44444444u);
  EXPECT_EQ(m.client({0, kAccum1}).read<std::uint32_t>(0), 0u);
  EXPECT_EQ(m.client({1, kSlice0}).read<std::uint32_t>(lastWord), 0u);
  EXPECT_EQ(m.client({1, kSlice2}).read<std::uint32_t>(0), 0u);
  EXPECT_EQ(m.client({1, kSlice3}).read<std::uint32_t>(lastWord), 0u);
}

TEST(MachineMemory, AccumulationIntoUntouchedMemoryStartsFromZero) {
  sim::Simulator sim;
  Machine m(sim, {2, 2, 2});
  const std::uint32_t addr = 96 << 10;
  const std::int32_t add[2] = {5, -7};
  auto accumulate = [&] {
    NetworkClient::SendArgs args;
    args.type = PacketType::kAccum;
    args.dst = {7, kAccum0};
    args.address = addr;
    args.counterId = 1;
    args.payload = makePayload(add, sizeof add);
    m.client({0, kSlice0}).post(args);
    sim.run();
  };
  accumulate();
  const NetworkClient& acc = m.client({7, kAccum0});
  EXPECT_EQ(acc.read<std::int32_t>(addr), 5);
  EXPECT_EQ(acc.read<std::int32_t>(addr + 4), -7);
  accumulate();
  EXPECT_EQ(acc.read<std::int32_t>(addr), 10);
  EXPECT_EQ(acc.read<std::int32_t>(addr + 4), -14);
  EXPECT_EQ(acc.counterValue(1), 2u);
}

TEST(MachineMemory, UntouchedCountersReadZeroAndBadIdsStillThrow) {
  sim::Simulator sim;
  MachineConfig cfg;
  cfg.countersPerClient = 16;
  Machine m(sim, {2, 1, 1}, cfg);
  const NetworkClient& c = m.client({1, kHtis});
  EXPECT_EQ(c.numCounters(), 16);
  for (int k = 0; k < c.numCounters(); ++k) {
    EXPECT_EQ(c.counterValue(k), 0u);
    EXPECT_EQ(c.counterWaiters(k), 0u);
    EXPECT_TRUE(c.counterSources(k).empty());
  }
  EXPECT_THROW((void)c.counterValue(-1), std::out_of_range);
  EXPECT_THROW((void)c.counterValue(16), std::out_of_range);
  EXPECT_THROW((void)c.counterWaiters(-1), std::out_of_range);
  EXPECT_THROW((void)c.counterWaiters(16), std::out_of_range);

  // First use sizes the whole bank: a waiter on one counter leaves the
  // others reading zero.
  NetworkClient& w = m.client({1, kSlice1});
  std::uint64_t token = w.onCounter(3, 1, [] {});
  EXPECT_NE(token, 0u);
  EXPECT_EQ(w.counterWaiters(3), 1u);
  EXPECT_EQ(w.counterValue(15), 0u);
  EXPECT_TRUE(w.cancelCounterWaiter(3, token));
  EXPECT_EQ(w.counterWaiters(3), 0u);
}

TEST(MachineMemory, BadShapesAndSizesFailBeforeMapping) {
  sim::Simulator sim;
  EXPECT_THROW((void)Machine(sim, {0, 8, 8}), std::invalid_argument);
  EXPECT_THROW((void)Machine(sim, {8, -1, 8}), std::invalid_argument);
  // More nodes than an int can index.
  EXPECT_THROW((void)Machine(sim, {2048, 2048, 2048}), std::invalid_argument);

  MachineConfig cfg;
  cfg.clientMemBytes = (std::size_t{1} << 32) + 1;
  EXPECT_THROW((void)Machine(sim, {1, 1, 1}, cfg), std::invalid_argument);

  // nodes x 7 x clientMemBytes overflows size_t: rejected, not wrapped.
  cfg.clientMemBytes = std::size_t{1} << 32;
  EXPECT_THROW((void)Machine(sim, {1024, 1024, 1024}, cfg), std::invalid_argument);

  MachineConfig neg;
  neg.countersPerClient = -1;
  EXPECT_THROW((void)Machine(sim, {1, 1, 1}, neg), std::invalid_argument);
}

TEST(MachineMemory, ZeroByteClientMemoryStillRoutesCountedPackets) {
  sim::Simulator sim;
  MachineConfig cfg;
  cfg.clientMemBytes = 0;
  Machine m(sim, {2, 1, 1}, cfg);
  NetworkClient::SendArgs args;
  args.dst = {1, kSlice0};
  args.counterId = 0;
  m.client({0, kSlice0}).post(args);
  sim.run();
  EXPECT_EQ(m.client({1, kSlice0}).memoryBytes(), 0u);
  EXPECT_EQ(m.client({1, kSlice0}).counterValue(0), 1u);
}

TEST(RecyclingQueue, KeepsFifoOrderAcrossDrainsAndRefills) {
  RecyclingQueue<int> q;
  EXPECT_TRUE(q.empty());
  std::vector<int> out;
  int next = 0;
  // Interleave pushes and pops, draining to empty in between, so the head
  // index both advances mid-queue and resets on empty.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 3 + round; ++i) q.push(next++);
    out.push_back(q.pop());
    q.push(next++);
    EXPECT_EQ(q.size(), std::size_t(3 + round));
    EXPECT_EQ(q.front(), out.back() + 1);
    while (!q.empty()) out.push_back(q.pop());
  }
  ASSERT_EQ(out.size(), std::size_t(next));
  for (int i = 0; i < next; ++i) EXPECT_EQ(out[std::size_t(i)], i);
}

}  // namespace
}  // namespace anton::net
