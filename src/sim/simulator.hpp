// Discrete-event simulation kernel.
//
// One exact (time, sequence) event order; sequence numbers make same-time
// ordering FIFO and the whole simulation deterministic. Coroutine tasks
// (sim::Task) are spawned as detached roots and driven by events that
// resume their handles.
//
// The hot path is allocation-free in steady state: queue entries are 24
// trivially-copyable bytes (callbacks park in a recycled slot arena as
// inline-capture sim::EventFn), and every backing vector keeps its capacity
// across reset(). Callers that batch same-source events (net::Machine's link
// drains) reserve sequence numbers up front via reserveSeq()/atReserved() so
// batching cannot perturb the (time, seq) schedule. The queue itself is a bucketed
// calendar (DESIGN.md §10, "Event queue"): only the current ~1 ns bucket
// is kept heap-ordered, so a 60k-deep queue costs a small heap per pop.
//
// Deadlines (armDeadline) are the one retractable kind of work. They wait
// outside the (time, seq) queue, in their own (time, arming order) heap, and
// take a sequence number only when they fire: a deadline cancelled first
// leaves the clock, the sequence counter, the processed tally and the
// schedule digest exactly as if it had never been armed. Tie rule: a
// deadline at t fires only once no queued event is at or before t, so work
// that lands exactly on the deadline (a counter wake, a message) wins the
// race; deadlines at one instant fire in the order they were armed.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/json.hpp"

namespace anton::sim {

class Simulator {
 public:
  using Callback = EventFn;
  /// Names an armed deadline for cancelDeadline(); 0 names none.
  using DeadlineId = std::uint64_t;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }
  std::uint64_t eventsProcessed() const { return processed_; }
  /// FNV-1a fingerprint of every executed event's (t, seq), in execution
  /// order, since construction or the last reset(). Two runs with equal
  /// digests executed the same schedule (tests/determinism_test.cpp pins it).
  std::uint64_t scheduleDigest() const { return digest_; }
  bool empty() const { return queue_.empty() && deadlines_.empty(); }
  /// Queued events plus armed deadlines.
  std::size_t pending() const { return queue_.size() + deadlines_.size(); }
  /// Root tasks not yet reaped (live coroutine frames held by the kernel).
  std::size_t liveRoots() const { return roots_.size(); }

  /// Schedule `fn` at absolute simulated time `t` (must be >= now).
  void at(Time t, Callback fn);

  /// Schedule `fn` after a relative delay (>= 0).
  void after(Time delay, Callback fn) { at(now() + delay, std::move(fn)); }

  /// Reserve the next event sequence number without scheduling anything.
  /// Paired with atReserved(), this lets a caller that coalesces several
  /// logical events into one scheduled drain keep the exact (time, seq)
  /// order the uncoalesced schedule would have had.
  std::uint64_t reserveSeq() { return nextSeq_++; }

  /// The next unissued sequence number (observability: atReserved() rejects
  /// seqs at or beyond this).
  std::uint64_t nextSeq() const { return nextSeq_; }

  /// Schedule `fn` at (t, seq) where `seq` came from reserveSeq(). The
  /// reservation point — not this call — fixes the event's FIFO rank among
  /// same-time events.
  void atReserved(Time t, std::uint64_t seq, Callback fn);

  /// Arm a deadline: run `fn` at absolute time `t` (must be >= now) unless
  /// cancelDeadline() retracts it first. See the tie rule above.
  DeadlineId armDeadline(Time t, Callback fn);
  /// Retract an armed deadline. Returns false (and does nothing) when it has
  /// already fired, was already cancelled, or `id` is 0.
  bool cancelDeadline(DeadlineId id);

  /// Resume a suspended coroutine after `delay`.
  void resumeAfter(Time delay, std::coroutine_handle<> h) {
    after(delay, [h] { h.resume(); });
  }

  /// Start a detached root task. The task frame is kept alive by the
  /// simulator and reaped (with exception propagation) during run().
  void spawn(Task task);

  /// Run until the event queue drains. Throws any exception raised by a
  /// root task. Returns the number of events processed by this call.
  std::uint64_t run();

  /// Run until no work is left or simulated time would exceed `until`.
  /// Work at exactly `until` is executed.
  std::uint64_t runUntil(Time until);

  /// Execute a single event if one is pending; returns false when idle.
  bool step();

  /// Return the kernel to its just-constructed state: pending events and
  /// armed deadlines are discarded unexecuted, live root-task frames are
  /// destroyed (their destructors run; no callbacks fire), and the clock,
  /// sequence counter, processed tally and schedule digest restart. The explicit arena-reuse
  /// audit point for workers that run many jobs on one Simulator
  /// (src/serve): a reset kernel is indistinguishable from a fresh one, so
  /// job results cannot depend on what ran before. Returns the number of
  /// pending events, armed deadlines and live roots that were discarded
  /// (0 = the arena was already clean).
  std::size_t reset();

  /// Awaitable for `co_await simctx.delay(...)`-style use; see delay().
  struct DelayAwaiter {
    Simulator& sim;
    Time duration;
    bool await_ready() const noexcept { return duration <= 0; }
    void await_suspend(std::coroutine_handle<> h) const {
      sim.resumeAfter(duration, h);
    }
    void await_resume() const noexcept {}
  };

  /// `co_await sim.delay(ns(36))` suspends the current task for the given
  /// simulated duration.
  DelayAwaiter delay(Time duration) { return DelayAwaiter{*this, duration}; }

 private:
  /// Queue entries are deliberately trivial: the callback lives in a slot
  /// arena off to the side, so queue operations move 24 plain bytes instead
  /// of a type-erased capture. The order is exactly (t, seq) — the slot
  /// index is payload, never a key — so the indirection cannot perturb the
  /// schedule.
  struct Event {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  /// Exact monotone bucketed queue. Time is cut into fixed buckets of
  /// 2^kBucketShift ps. Every pending event sits in exactly one of:
  ///   * cur_  — a (t, seq) min-heap holding every event whose bucket is at
  ///             or before curBucket_ (normally just the current bucket);
  ///   * the ring — unsorted buckets curBucket_+1 ..
  ///             curBucket_+kRingBuckets-1;
  ///   * far_  — a (t, seq) min-heap for events beyond that horizon.
  /// Buckets are ordered by time, so the least event of cur_ is the least
  /// event overall; when cur_ empties, the next occupied bucket (or the far
  /// heap's first bucket) becomes current and is heapified. Ties and the
  /// seq order are resolved only inside cur_, by the same comparator the
  /// single heap used, so the pop order is bit-identical to it.
  class EventQueue {
   public:
    static constexpr unsigned kBucketShift = 10;        ///< 1.024 ns buckets
    static constexpr std::uint64_t kRingBuckets = 4096;  ///< ~4.2 us horizon

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    void push(const Event& e);
    /// The least pending event (queue must be non-empty). May make a later
    /// bucket current; pushes behind it still land in cur_, so peeking
    /// never costs exactness.
    const Event& top() {
      if (cur_.empty()) advance();
      return cur_.front();
    }
    /// Remove top(); returns the new least event of the current bucket
    /// (nullptr when that bucket is used up), for prefetching its slot.
    const Event* pop();
    /// Call `visit` on every pending event, then empty the queue. Touches
    /// only occupied buckets; all storage is kept for reuse.
    template <typename F>
    void drain(F&& visit);

   private:
    /// A ring bucket is a singly linked list of fixed blocks drawn from one
    /// shared pool (newest block first), so ring memory follows the peak
    /// pending count rather than the number of buckets ever touched, and a
    /// warmed-up queue allocates nothing.
    static constexpr std::uint32_t kBlockEvents = 10;
    static constexpr std::uint32_t kNoBlock = ~std::uint32_t(0);
    struct Block {
      Event ev[kBlockEvents];
      std::uint32_t n;     ///< events in use
      std::uint32_t next;  ///< older block of the bucket, or next free block
    };

    void advance();
    void pushRing(std::uint64_t bucket, const Event& e);
    /// Unlink ring bucket `i`, calling `visit` on each event and freeing
    /// its blocks.
    template <typename F>
    void takeBucket(std::size_t i, F&& visit);
    static std::uint64_t bucketOf(Time t) {
      return std::uint64_t(t) >> kBucketShift;
    }

    std::size_t size_ = 0;
    std::uint64_t curBucket_ = 0;
    std::vector<Event> cur_;
    /// Per ring bucket, its newest block (kNoBlock when empty); sized on the
    /// first event scheduled past the current bucket, so a kernel that
    /// never gets that far pays nothing for the ring.
    std::vector<std::uint32_t> head_;
    std::vector<std::uint64_t> occupied_;  ///< bit i: ring bucket i non-empty
    std::size_t ringCount_ = 0;            ///< events in the ring
    std::vector<Block> blocks_;
    std::uint32_t freeBlock_ = kNoBlock;
    std::vector<Event> far_;
  };

  std::uint32_t park(Callback&& fn);
  void release(std::uint32_t idx);
  void reapRoots();

  Time now_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t digest_ = util::kFnvOffsetBasis;
  EventQueue queue_;
  /// Parked callbacks, recycled through freeSlots_ (LIFO), so the arena
  /// stops growing once it covers the peak in-flight event count.
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> freeSlots_;
  /// Armed deadlines: a (t, id) min-heap whose `seq` field holds the
  /// DeadlineId (arming order). Ids keep counting across reset(), so a
  /// stale id can never retract a later deadline.
  std::vector<Event> deadlines_;
  DeadlineId lastDeadline_ = 0;
  std::vector<Task> roots_;
};

}  // namespace anton::sim
