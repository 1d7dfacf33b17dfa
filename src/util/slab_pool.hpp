// Slab/freelist memory pools for the zero-allocation hot path.
//
// A SlabPool serves fixed-granularity slots out of bump-carved slabs (the
// same discipline core/arena.hpp applies to client memories: carve up front,
// never give back) and recycles freed slots through per-size-class
// freelists. Once the working set has been touched, every alloc/free is a
// pointer pop/push — no malloc, ever — which is what lets the event kernel
// run packets, payload buffers and coroutine frames without touching the
// host allocator (ndn-dpdk's DPDK mempool idiom, applied to simulated
// packets).
//
// Requests over kMaxSlotBytes fall back to the heap. Every block carries a
// 16-byte header tagging its origin (pool bucket or heap fallback, and the
// serving pool), so free() knows where a block goes and release() can find
// its pool from the pointer alone.
//
// PoolRef is the single-threaded refcounted handle to a pooled object (the
// simulated packets and payload buffers): the count lives in the object's
// own slot, so copying a handle is a plain increment — no atomics, no
// separate control block.
//
// SlabPools are single-owner: each simulation arena (and its serve worker
// thread) owns its own pools, and only the thread that constructed a pool
// may alloc() from it or free() into it. A free from any other thread is a
// bug that would corrupt the freelists, so it aborts naming the pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace anton::util {

/// Monotonic counters plus live-slot gauges of one SlabPool.
struct SlabPoolStats {
  std::uint64_t poolAllocs = 0;   ///< slots served from a slab or freelist
  std::uint64_t poolFrees = 0;    ///< slots pushed back onto a freelist
  std::uint64_t heapAllocs = 0;   ///< heap fallbacks (oversized requests)
  std::uint64_t heapFrees = 0;
  std::uint64_t slabBytes = 0;    ///< total slab memory carved so far
  std::size_t live = 0;           ///< pool slots currently outstanding
  std::size_t liveHighWater = 0;  ///< peak of `live`
};

class SlabPool {
 public:
  /// Slot sizes are rounded up to multiples of this granule.
  static constexpr std::size_t kGranule = 64;
  /// Requests above this size always come from the heap (the "oversized
  /// capture" escape hatch; nothing on the hot path should hit it).
  static constexpr std::size_t kMaxSlotBytes = 4096;
  /// Slabs are carved in chunks of this many bytes.
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  /// `maxBytes` bounds total slab memory; exhausting it is a loud
  /// std::runtime_error naming the pool, never UB. The default is generous —
  /// a 4096-node sweep's in-flight packets fit with room to spare.
  explicit SlabPool(std::string name, std::size_t maxBytes = 256 << 20)
      : name_(std::move(name)), maxBytes_(maxBytes) {}

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  /// Allocate `bytes` (aligned for any ordinary type). Pool slot when the
  /// size fits a bucket; tagged heap block over kMaxSlotBytes.
  /// Owner-thread only.
  void* alloc(std::size_t bytes) {
    if (bytes > kMaxSlotBytes) return heapAlloc(bytes);
    std::size_t bucket = (bytes + kGranule - 1) / kGranule;  // >= 1
    if (FreeNode* n = freelists_[bucket]) {
      freelists_[bucket] = n->next;
      // The next pop reads the new head's link: start loading it now.
      __builtin_prefetch(n->next);
      ++stats_.poolAllocs;
      bump();
      return tag(n, std::uint32_t(bucket));
    }
    std::size_t need = kHeaderBytes + bucket * kGranule;
    if (cursorLeft_ < need) carveSlab(need);
    std::byte* p = cursor_;
    cursor_ += need;
    cursorLeft_ -= need;
    ++stats_.poolAllocs;
    bump();
    return tag(p, std::uint32_t(bucket));
  }

  /// Release a block previously returned by alloc(). Owner-thread only:
  /// a free from any other thread aborts naming the pool.
  void free(void* p) noexcept {
    if (std::this_thread::get_id() != owner_) foreignFree();
    auto* h = reinterpret_cast<Header*>(static_cast<std::byte*>(p) -
                                        kHeaderBytes);
    if (h->bucket == kHeapBucket) {
      ++stats_.heapFrees;
      ::operator delete(static_cast<void*>(h));
      return;
    }
    auto* n = reinterpret_cast<FreeNode*>(h);
    n->next = freelists_[h->bucket];
    freelists_[h->bucket] = n;
    ++stats_.poolFrees;
    --stats_.live;
  }

  /// Release a block through the pool that served it, read from the header.
  /// For call sites that cannot remember the origin pool (e.g. coroutine
  /// frame operator delete, which only gets a pointer): the block goes back
  /// to the pool that served it, so a block that strayed to another thread
  /// fails the owner check instead of landing in that thread's pool.
  static void release(void* p) noexcept {
    reinterpret_cast<Header*>(static_cast<std::byte*>(p) - kHeaderBytes)
        ->origin->free(p);
  }

  const SlabPoolStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }

  /// Shrink (or raise) the slab-memory budget; carving past it throws.
  void setMaxBytes(std::size_t maxBytes) { maxBytes_ = maxBytes; }
  std::size_t maxBytes() const { return maxBytes_; }

 private:
  static constexpr std::size_t kHeaderBytes = 16;  // keeps payloads 16-aligned
  static constexpr std::uint32_t kHeapBucket = 0xffffffffu;
  struct Header {
    std::uint32_t bucket;
    std::uint32_t pad;
    SlabPool* origin;  ///< pool that served the block, for release()
  };
  static_assert(sizeof(Header) <= kHeaderBytes);
  struct FreeNode {
    FreeNode* next;
  };

  [[noreturn]] void foreignFree() const noexcept {
    std::fprintf(stderr,
                 "SlabPool '%s': block freed on a thread that does not own "
                 "the pool\n",
                 name_.c_str());
    std::abort();
  }

  void* tag(void* block, std::uint32_t bucket) {
    auto* h = reinterpret_cast<Header*>(block);
    h->bucket = bucket;
    h->origin = this;
    return static_cast<std::byte*>(block) + kHeaderBytes;
  }

  void* heapAlloc(std::size_t bytes) {
    void* block = ::operator new(kHeaderBytes + bytes);
    ++stats_.heapAllocs;
    return tag(block, kHeapBucket);
  }

  void bump() {
    ++stats_.live;
    if (stats_.live > stats_.liveHighWater) stats_.liveHighWater = stats_.live;
  }

  void carveSlab(std::size_t need) {
    std::size_t bytes = need > kSlabBytes ? need : kSlabBytes;
    if (stats_.slabBytes + bytes > maxBytes_)
      throw std::runtime_error("SlabPool '" + name_ + "' exhausted: " +
                               std::to_string(stats_.slabBytes + bytes) +
                               " bytes would exceed the " +
                               std::to_string(maxBytes_) + "-byte budget (" +
                               std::to_string(stats_.live) + " slots live)");
    slabs_.push_back(std::make_unique<std::byte[]>(bytes));
    stats_.slabBytes += bytes;
    cursor_ = slabs_.back().get();
    cursorLeft_ = bytes;
  }

  std::string name_;
  std::size_t maxBytes_;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::byte* cursor_ = nullptr;
  std::size_t cursorLeft_ = 0;
  // freelists_[b] chains free slots of bucket b (b * kGranule payload bytes).
  FreeNode* freelists_[kMaxSlotBytes / kGranule + 1] = {};
  SlabPoolStats stats_;
  const std::thread::id owner_ = std::this_thread::get_id();
};

/// One pooled object and its handle count, sharing a slot (the count
/// first, on the object's leading cache line).
template <typename V>
struct PoolBox {
  std::uint32_t refs;
  V value;
};

/// Intrusive refcounted handle to a T in a SlabPool slot. Single-threaded
/// by construction: every handle to one object lives on the thread that
/// owns the pool, so the count is a plain integer. The last handle to let
/// go destroys the object and returns the slot through SlabPool::release —
/// a handle dropped on any other thread therefore aborts naming the pool,
/// like every foreign free. T may be const (a read-only share of an object
/// its creator filled in through the mutable handle make() returned).
template <typename T>
class PoolRef {
  using V = std::remove_const_t<T>;
  using Box = PoolBox<V>;

 public:
  PoolRef() noexcept = default;
  PoolRef(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  /// A fresh object constructed from `args` in a slot of `pool`.
  template <typename... A>
  static PoolRef make(SlabPool& pool, A&&... args) {
    PoolRef r;
    r.box_ = ::new (pool.alloc(sizeof(Box)))
        Box{1, V(std::forward<A>(args)...)};
    return r;
  }

  PoolRef(const PoolRef& o) noexcept : box_(o.box_) { retain(); }
  PoolRef(PoolRef&& o) noexcept : box_(std::exchange(o.box_, nullptr)) {}
  /// Hand a freshly filled mutable handle over as a const one.
  template <typename U>
    requires std::is_same_v<const U, T> && (!std::is_same_v<U, T>)
  PoolRef(PoolRef<U>&& o) noexcept  // NOLINT(google-explicit-constructor)
      : box_(std::exchange(o.box_, nullptr)) {}

  /// Copy and move assignment alike (by-value swap: self-assignment safe).
  PoolRef& operator=(PoolRef o) noexcept {
    std::swap(box_, o.box_);
    return *this;
  }
  ~PoolRef() { reset(); }

  /// Drop this handle (the slot goes back to its pool with the last one).
  void reset() noexcept {
    Box* b = std::exchange(box_, nullptr);
    if (b != nullptr && --b->refs == 0) {
      b->~Box();
      SlabPool::release(b);
    }
  }

  T* get() const noexcept { return box_ != nullptr ? &box_->value : nullptr; }
  T& operator*() const noexcept { return box_->value; }
  T* operator->() const noexcept { return &box_->value; }
  explicit operator bool() const noexcept { return box_ != nullptr; }
  /// Handles sharing this object (0 for a null handle).
  std::uint32_t useCount() const noexcept {
    return box_ != nullptr ? box_->refs : 0;
  }

  friend bool operator==(const PoolRef& a, const PoolRef& b) noexcept {
    return a.box_ == b.box_;
  }
  friend bool operator==(const PoolRef& a, std::nullptr_t) noexcept {
    return a.box_ == nullptr;
  }

 private:
  template <typename U>
  friend class PoolRef;

  void retain() const noexcept {
    if (box_ != nullptr) ++box_->refs;
  }

  Box* box_ = nullptr;
};

}  // namespace anton::util
