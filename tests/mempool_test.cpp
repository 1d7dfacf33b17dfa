// Pool-layer coverage for the zero-allocation hot path: slab exhaustion is
// a loud error (never UB), recycled slots come back with fresh bookkeeping,
// the intrusive packet/payload handles count exactly (copy, move,
// self-assignment, reset) and hand the slot back with the last handle,
// multicast replicas and recovery replays share one payload slot,
// oversized requests fall back to the heap, and a free from a thread that
// does not own the pool aborts.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/recovery.hpp"
#include "net/machine.hpp"
#include "net/packet.hpp"
#include "sim/event_fn.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "util/slab_pool.hpp"

namespace anton {
namespace {

using util::SlabPool;

TEST(SlabPool, ServesAndRecyclesSlots) {
  SlabPool pool("t");
  void* a = pool.alloc(48);
  void* b = pool.alloc(48);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.stats().poolAllocs, 2u);
  EXPECT_EQ(pool.stats().live, 2u);

  pool.free(b);
  EXPECT_EQ(pool.stats().live, 1u);
  // Freelists are LIFO per size class: the next same-bucket request reuses
  // the slot just released, with zero new slab consumption.
  std::uint64_t carved = pool.stats().slabBytes;
  void* b2 = pool.alloc(40);  // same 64-byte bucket as the 48-byte slot
  EXPECT_EQ(b2, b);
  EXPECT_EQ(pool.stats().slabBytes, carved);
  EXPECT_EQ(pool.stats().liveHighWater, 2u);
  pool.free(b2);
  pool.free(a);
  EXPECT_EQ(pool.stats().live, 0u);
}

TEST(SlabPool, ExhaustionIsALoudErrorNamingThePool) {
  SlabPool pool("tiny-budget", /*maxBytes=*/1024);
  try {
    pool.alloc(64);  // the first slab carve (64 KiB) already busts 1 KiB
    FAIL() << "exhausted pool must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("tiny-budget"), std::string::npos)
        << "the error must name the pool: " << e.what();
  }
  // A raised budget recovers the pool; nothing was corrupted by the throw.
  pool.setMaxBytes(1 << 20);
  void* p = pool.alloc(64);
  ASSERT_NE(p, nullptr);
  pool.free(p);
}

TEST(SlabPool, OversizedRequestsFallBackToTheHeap) {
  SlabPool pool("t");
  void* big = pool.alloc(SlabPool::kMaxSlotBytes + 1);
  EXPECT_EQ(pool.stats().heapAllocs, 1u);
  EXPECT_EQ(pool.stats().poolAllocs, 0u);
  pool.free(big);
  EXPECT_EQ(pool.stats().heapFrees, 1u);
  EXPECT_EQ(pool.stats().slabBytes, 0u) << "no slab was ever carved";
}

// --- single-owner discipline ------------------------------------------------
// A pool belongs to the thread that built it. A free from any other thread
// would corrupt the freelists (or race the counters), so it must fail loudly
// — abort naming the pool — rather than be absorbed.

TEST(SlabPool, ReleaseRoutesEveryBlockToItsOriginPoolNotTheCallersPool) {
  SlabPool first("first");
  SlabPool second("second");
  void* a = first.alloc(64);
  void* b = second.alloc(64);
  // release() reads the origin from the block header; it must not consult
  // any notion of "the current pool".
  SlabPool::release(b);
  SlabPool::release(a);
  EXPECT_EQ(first.stats().live, 0u);
  EXPECT_EQ(first.stats().poolFrees, 1u);
  EXPECT_EQ(second.stats().live, 0u);
  EXPECT_EQ(second.stats().poolFrees, 1u);
}

TEST(SlabPoolDeathTest, ForeignThreadFreeAbortsNamingThePool) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        SlabPool pool("xfree");
        void* p = pool.alloc(48);
        std::thread([&] { SlabPool::release(p); }).join();
      },
      "SlabPool 'xfree'.*does not own");
  // Heap-fallback blocks obey the same rule: their counter is owner-only.
  EXPECT_DEATH(
      {
        SlabPool pool("xheap");
        void* p = pool.alloc(SlabPool::kMaxSlotBytes + 1);
        std::thread([&] { pool.free(p); }).join();
      },
      "SlabPool 'xheap'.*does not own");
}

TEST(PacketPool, RecycledPacketSlotComesBackWithFreshBookkeeping) {
  net::PacketPtr p = net::allocatePacket();
  p->counterId = 7;
  p->address = 0xabcd;
  p->inOrder = true;
  p->injectedAt = sim::ns(123);
  p->tailLag = sim::ns(9);
  p->routeSalt = 42;
  p->wire = 96;
  p->payload = net::makeZeroPayload(64);
  const void* slot = p.get();
  p.reset();  // back to the freelist

  net::PacketPtr q = net::allocatePacket();
  EXPECT_EQ(static_cast<const void*>(q.get()), slot)
      << "the freed slot was not recycled";
  EXPECT_EQ(q->counterId, net::kNoCounter);
  EXPECT_EQ(q->address, 0u);
  EXPECT_FALSE(q->inOrder);
  EXPECT_EQ(q->injectedAt, 0);
  EXPECT_EQ(q->tailLag, 0);
  EXPECT_EQ(q->routeSalt, 0u);
  EXPECT_EQ(q->wire, 0u);
  EXPECT_EQ(q->payload, nullptr);
}

TEST(PacketPool, RecycledPayloadSlotIsRezeroed) {
  std::vector<std::byte> junk(net::kMaxPayloadBytes, std::byte{0xff});
  net::PayloadPtr a = net::makePayload(junk.data(), junk.size());
  const void* slot = a.get();
  a.reset();
  // A zero payload reusing the same slot must not see the old bytes.
  net::PayloadPtr b = net::makeZeroPayload(net::kMaxPayloadBytes);
  EXPECT_EQ(static_cast<const void*>(b.get()), slot);
  for (std::size_t i = 0; i < b->size(); ++i)
    ASSERT_EQ(b->data()[i], std::byte{0}) << "stale byte at " << i;
}

TEST(PacketPool, MulticastReplicasShareOnePayloadSlot) {
  sim::Simulator sim;
  net::Machine m(sim, {2, 2, 1});
  // Local fan-out to three slices plus one link hop to the +x neighbor,
  // which delivers to its slice 0.
  net::MulticastEntry root;
  root.clientMask = (1u << net::kSlice0) | (1u << net::kSlice1) |
                    (1u << net::kSlice2);
  root.linkMask = 1u << 0;  // +x
  m.setMulticastPattern(0, 0, root);
  net::MulticastEntry leaf;
  leaf.clientMask = 1u << net::kSlice0;
  m.setMulticastPattern(1, 0, leaf);

  std::size_t liveBefore = net::payloadPool().stats().live;
  std::uint64_t value = 0x1122334455667788ull;
  net::NetworkClient::SendArgs args;
  args.type = net::PacketType::kFifo;
  args.multicastPattern = 0;
  args.payload = net::makePayload(&value, sizeof value);
  m.client({0, net::kSlice3}).post(args);
  sim.run();

  // Four FIFO deliveries, all holding the same payload slot: exactly one
  // payload slot is live beyond the baseline, however wide the fan-out.
  std::vector<net::PacketPtr> got;
  for (int node : {0, 0, 0, 1}) {
    static int sliceOf[] = {net::kSlice0, net::kSlice1, net::kSlice2,
                            net::kSlice0};
    net::PacketPtr p = m.slice(node, sliceOf[got.size()]).pollFifo();
    ASSERT_NE(p, nullptr);
    got.push_back(std::move(p));
  }
  EXPECT_EQ(net::payloadPool().stats().live, liveBefore + 1);
  for (const net::PacketPtr& p : got) {
    EXPECT_EQ(p->payload, got[0]->payload) << "replicas must share the slot";
    EXPECT_EQ(0, std::memcmp(p->payload->data(), &value, sizeof value));
  }
  got.clear();
  args.payload = nullptr;  // the send-args copy was the last off-fabric ref
  EXPECT_EQ(net::payloadPool().stats().live, liveBefore)
      << "the shared slot must return once the last replica lets go";
}

// --- intrusive handles ------------------------------------------------------

TEST(PoolRef, CopyMoveSelfAssignmentAndResetCountExactly) {
  const std::size_t live0 = net::packetPool().stats().live;
  net::PacketPtr a = net::allocatePacket();
  EXPECT_EQ(net::packetPool().stats().live, live0 + 1);
  EXPECT_EQ(a.useCount(), 1u);

  net::PacketPtr b = a;  // copy
  EXPECT_EQ(b.get(), a.get());
  EXPECT_EQ(a.useCount(), 2u);
  net::PacketPtr c = std::move(b);  // move: no count change
  EXPECT_EQ(b, nullptr);            // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c, a);
  EXPECT_EQ(a.useCount(), 2u);

  net::PacketPtr& alias = a;
  a = alias;  // self copy-assignment
  EXPECT_EQ(a.useCount(), 2u);
  a = std::move(alias);  // self move-assignment
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.useCount(), 2u);

  net::PacketPtr d;
  d = c;  // copy-assign into an empty handle
  EXPECT_EQ(a.useCount(), 3u);
  d = net::allocatePacket();  // re-seat: drops its share of the first slot
  EXPECT_EQ(a.useCount(), 2u);
  EXPECT_EQ(net::packetPool().stats().live, live0 + 2);
  d.reset();
  EXPECT_EQ(d, nullptr);
  EXPECT_EQ(net::packetPool().stats().live, live0 + 1);

  a.reset();
  EXPECT_EQ(c.useCount(), 1u);
  EXPECT_EQ(net::packetPool().stats().live, live0 + 1)
      << "the slot must stay while a handle remains";
  c = nullptr;  // the last handle: the slot goes back to the pool
  EXPECT_EQ(net::packetPool().stats().live, live0);
  c.reset();  // resetting an empty handle is a no-op
  EXPECT_EQ(net::packetPool().stats().live, live0);
}

TEST(PoolRef, PacketHoldsItsPayloadUntilTheLastPacketHandleGoes) {
  const std::size_t payloads0 = net::payloadPool().stats().live;
  net::PacketPtr p = net::allocatePacket();
  p->payload = net::makeZeroPayload(64);  // mutable handle -> const share
  EXPECT_EQ(p->payload.useCount(), 1u);
  net::PayloadPtr extra = p->payload;
  EXPECT_EQ(extra.useCount(), 2u);
  EXPECT_EQ(net::payloadPool().stats().live, payloads0 + 1);
  net::PacketPtr q = p;
  p.reset();
  EXPECT_EQ(extra.useCount(), 2u) << "q still holds the packet and payload";
  q.reset();  // destroys the packet, which drops its payload share
  EXPECT_EQ(extra.useCount(), 1u);
  extra.reset();
  EXPECT_EQ(net::payloadPool().stats().live, payloads0);
}

TEST(PoolRef, DropRegistryReplaysShareTheDroppedPayloadSlot) {
  // The first link traversal fails: a multicast packet loses both
  // receivers beyond it. The registry holds the dropped packet; each replay
  // is a fresh packet sharing the original payload slot.
  struct DropFirstTraversal final : net::FaultModel {
    int seen = 0;
    net::LinkFaultOutcome onLinkTraversal(int, int, int, std::size_t,
                                          sim::Time) override {
      return {.linkFailed = seen++ == 0};
    }
    bool linkDown(int, int, int, sim::Time) const override { return false; }
    sim::Time routerStallUntil(int, sim::Time t) const override { return t; }
  } fault;
  sim::Simulator sim;
  net::Machine m(sim, {2, 1, 1});
  m.setFaultModel(&fault);
  core::DropRegistry registry(m);
  net::MulticastEntry root;
  root.clientMask = 1u << net::kSlice0;
  root.linkMask = 1u << 0;  // +x
  m.setMulticastPattern(0, 0, root);
  net::MulticastEntry leaf;
  leaf.clientMask = (1u << net::kSlice0) | (1u << net::kSlice1);
  m.setMulticastPattern(1, 0, leaf);

  const std::size_t payloads0 = net::payloadPool().stats().live;
  const std::size_t packets0 = net::packetPool().stats().live;
  std::uint64_t value = 0x0123456789abcdefull;
  net::NetworkClient::SendArgs args;
  args.multicastPattern = 0;
  args.counterId = 2;
  args.address = 64;
  args.payload = net::makePayload(&value, sizeof value);
  m.client({0, net::kSlice3}).post(args);
  args.payload = nullptr;
  sim.run();
  ASSERT_EQ(registry.pending(), 2u) << "both receivers past the failed link";
  EXPECT_EQ(net::packetPool().stats().live, packets0 + 1)
      << "two registry entries, one dropped packet";
  EXPECT_EQ(net::payloadPool().stats().live, payloads0 + 1);

  core::WatchdogReport report;
  report.counterId = 2;
  report.missing = {{0, 1, 0}};
  for (int s : {net::kSlice0, net::kSlice1}) {
    report.dst = {1, s};
    EXPECT_EQ(core::resendFromRegistry(m, registry, report), 1u);
  }
  EXPECT_EQ(registry.pending(), 0u);
  EXPECT_EQ(net::packetPool().stats().live, packets0 + 2)
      << "the dropped packet is gone; two replays are in flight";
  EXPECT_EQ(net::payloadPool().stats().live, payloads0 + 1)
      << "the replays must share the dropped packet's payload slot";
  sim.run();
  for (int s : {net::kSlice0, net::kSlice1}) {
    EXPECT_EQ(m.client({1, s}).counterValue(2), 1u);
    EXPECT_EQ(m.client({1, s}).read<std::uint64_t>(64), value);
  }
  EXPECT_EQ(net::packetPool().stats().live, packets0);
  EXPECT_EQ(net::payloadPool().stats().live, payloads0);
}

TEST(PoolRefDeathTest, LastHandleDroppedOnAForeignThreadAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        net::PacketPtr p = net::allocatePacket();
        std::thread([q = std::move(p)]() mutable { q.reset(); }).join();
      },
      "SlabPool 'packet'.*does not own");
}

TEST(EventFn, LargeCapturesStayInlineThroughMovesAndCalls) {
  struct Big {
    int pad[12] = {};  // 48 bytes: over std::function's SBO, under kInlineBytes
    int* hits;
    void operator()() const { ++*hits; }
  };
  static_assert(sizeof(Big) <= sim::EventFn::kInlineBytes);
  int hits = 0;
  sim::EventFn fn(Big{{}, &hits});
  sim::EventFn moved(std::move(fn));
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(moved));
  moved();
  moved();
  EXPECT_EQ(hits, 2);
  sim::EventFn assigned;
  assigned = std::move(moved);
  assigned();
  EXPECT_EQ(hits, 3);
}

TEST(EventFn, OversizedCapturesBoxToTheHeap) {
  struct Huge {
    char pad[96] = {};  // over kInlineBytes: always boxed
    int* hits;
    void operator()() const { ++*hits; }
  };
  static_assert(sizeof(Huge) > sim::EventFn::kInlineBytes);
  int hits = 0;
  sim::EventFn fn(Huge{{}, &hits});
  sim::EventFn moved(std::move(fn));
  moved();
  EXPECT_EQ(hits, 1);
}

TEST(TaskFramePool, CoroutineFramesRecycleThroughTheSlabPool) {
  const util::SlabPoolStats before = sim::taskFramePool().stats();
  sim::Simulator sim;
  auto tiny = [](sim::Simulator& s) -> sim::Task { co_await s.delay(sim::ns(1)); };
  for (int i = 0; i < 64; ++i) sim.spawn(tiny(sim));
  sim.run();
  const util::SlabPoolStats& after = sim::taskFramePool().stats();
  EXPECT_GE(after.poolAllocs - before.poolAllocs, 64u);
  EXPECT_EQ(after.live, before.live) << "frames leaked past the run";
  // The second wave reuses the first wave's slots: no new slab memory.
  std::uint64_t carved = after.slabBytes;
  for (int i = 0; i < 64; ++i) sim.spawn(tiny(sim));
  sim.run();
  EXPECT_EQ(sim::taskFramePool().stats().slabBytes, carved);
}

}  // namespace
}  // namespace anton
