// Network packet format of the Anton communication fabric.
//
// Packets carry 32 bytes of header plus 0-256 bytes of payload; writes of up
// to 8 bytes travel in the header itself (SC10 §III-A). Write and
// accumulation packets name a synchronization counter at the destination
// client which is incremented once the payload has been committed to the
// client's local memory — the basis of counted remote writes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"
#include "util/slab_pool.hpp"

namespace anton::net {

/// Fixed per-packet header size on the wire (SC10 §III-A).
inline constexpr std::size_t kHeaderBytes = 32;
/// Maximum payload per packet.
inline constexpr std::size_t kMaxPayloadBytes = 256;
/// Payloads up to this size ride in the header (no extra wire bytes).
inline constexpr std::size_t kImmediateBytes = 8;

/// Client slots within a node: four processing slices, the HTIS, and two
/// accumulation memories (SC10 Fig. 3: "seven local memories").
inline constexpr int kSlice0 = 0;
inline constexpr int kSlice1 = 1;
inline constexpr int kSlice2 = 2;
inline constexpr int kSlice3 = 3;
inline constexpr int kHtis = 4;
inline constexpr int kAccum0 = 5;
inline constexpr int kAccum1 = 6;
inline constexpr int kClientsPerNode = 7;
inline constexpr int kNumSlices = 4;

/// Sentinel: packet does not increment any synchronization counter.
inline constexpr int kNoCounter = -1;
/// Sentinel: unicast packet (no multicast pattern).
inline constexpr int kNoMulticast = -1;

/// Address of a network client: (node linear index, client slot).
struct ClientAddr {
  int node = 0;
  int client = 0;
  friend constexpr bool operator==(const ClientAddr&, const ClientAddr&) = default;
};

enum class PacketType : std::uint8_t {
  kWrite,  ///< remote write into the target client's local memory
  kAccum,  ///< accumulation: 4-byte-wise add into an accumulation memory
  kFifo,   ///< delivered to the target slice's hardware message FIFO
};

/// Payload buffer: a fixed 256-byte slot (the wire maximum) plus its live
/// length. Fixed-format like the hardware's packet buffers, so payloads
/// recycle through the slab pool without per-size heap traffic; multicast
/// replicas and recovery replays share one slot by refcount.
///
/// Packets and payloads are held through util::PoolRef handles: a
/// single-threaded intrusive count in the object's own pool slot. Every
/// handle stays on the thread that allocated it (each simulation arena is
/// single-threaded and owns its pools), which is what makes a plain count
/// safe.
class PayloadBuf {
 public:
  explicit PayloadBuf(std::size_t size) : size_(size) {}
  const std::byte* data() const { return data_.data(); }
  std::byte* data() { return data_.data(); }
  std::size_t size() const { return size_; }

 private:
  std::size_t size_;
  std::array<std::byte, kMaxPayloadBytes> data_{};  // zeroed on (re)construction
};

using PayloadPtr = util::PoolRef<const PayloadBuf>;

/// Slab pools behind packet and payload slots on this thread. post()/
/// makePayload() draw refcounted slots from these; the slot returns to its
/// freelist when the last holder (machine event, FIFO, DropRegistry replay
/// buffer) lets go.
inline util::SlabPool& packetPool() {
  thread_local util::SlabPool pool("packet");
  return pool;
}
inline util::SlabPool& payloadPool() {
  thread_local util::SlabPool pool("payload");
  return pool;
}

/// A packet in flight. Multicast replicas share the payload buffer.
struct Packet {
  PacketType type = PacketType::kWrite;
  ClientAddr src;
  ClientAddr dst;              ///< ignored for multicast packets
  int multicastPattern = kNoMulticast;
  int counterId = kNoCounter;  ///< destination sync counter to increment
  std::uint32_t address = 0;   ///< destination local-memory byte offset
  bool inOrder = false;        ///< force deterministic (ordered) routing
  /// Recovery replays set this: routing avoids links marked failed (and
  /// outage-down links) instead of re-entering the link that ate the
  /// original copy. Never set on first-transmission traffic, so the
  /// zero-fault path is untouched.
  bool degradedRoute = false;
  PayloadPtr payload;  ///< may be null (0 B)

  // --- bookkeeping filled in by the machine ---
  sim::Time injectedAt = 0;    ///< simulated injection time
  sim::Time tailLag = 0;       ///< serialization lag of the packet tail
  std::uint64_t routeSalt = 0; ///< per-packet salt for adaptive dim ordering
  /// wireBytes() as of injection: the hop path reads it here instead of
  /// reaching into the payload's slot on every link and delivery.
  std::uint32_t wire = 0;

  std::size_t payloadBytes() const { return payload ? payload->size() : 0; }

  /// Bytes the packet occupies on a torus link: header plus any payload that
  /// does not fit into the header's immediate field.
  std::size_t wireBytes() const {
    std::size_t p = payloadBytes();
    return kHeaderBytes + (p <= kImmediateBytes ? 0 : p);
  }
};

using PacketPtr = util::PoolRef<Packet>;

/// A fresh default-constructed packet slot from this thread's packet pool
/// (count and object in one recycled slot; bookkeeping fields are
/// re-initialized on every reuse).
PacketPtr allocatePacket();

/// Convenience: build a payload buffer from raw bytes (pooled slot).
PayloadPtr makePayload(const void* data, std::size_t size);

/// Convenience: payload of `size` zero bytes (timing-only experiments).
PayloadPtr makeZeroPayload(std::size_t size);

}  // namespace anton::net
