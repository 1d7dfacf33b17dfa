// Slab-friendly event callback: a move-only, type-erased void() whose
// capture lives inline in the event record.
//
// The kernel's hot path schedules a continuation per packet delivery and per
// link drain; storing them as std::function heap-allocates every capture
// larger than its SBO (~16 bytes — the delivery continuation is 32). EventFn
// gives each event a fixed 64-byte inline capture slot, falling back to a
// heap box only for oversized captures, so steady-state event scheduling
// never allocates.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace anton::sim {

class EventFn {
 public:
  /// Inline capture capacity: the fattest hot-path continuation (local
  /// delivery: this + PacketPtr + 2 ints) with headroom.
  static constexpr std::size_t kInlineBytes = 64;
  static constexpr std::size_t kInlineAlign = 16;

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): callback sink
    using D = std::decay_t<F>;
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "event callbacks must be nothrow-movable");
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= kInlineAlign) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &inlineOps<D>;
    } else {
      // Oversized capture: box it on the heap.
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &boxedOps<D>;
    }
  }

  EventFn(EventFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
    o.ops_ = nullptr;
  }

  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct the capture into dst from src, then destroy src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename D>
  static constexpr Ops inlineOps = {
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* dst, void* src) {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* p) { static_cast<D*>(p)->~D(); },
  };

  template <typename D>
  static constexpr Ops boxedOps = {
      [](void* p) { (**static_cast<D**>(p))(); },
      [](void* dst, void* src) {
        std::memcpy(dst, src, sizeof(D*));  // steal the box pointer
      },
      [](void* p) { delete *static_cast<D**>(p); },
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace anton::sim
