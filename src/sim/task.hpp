// Coroutine task type for simulation "programs".
//
// Software running on Anton's processing slices is modeled as C++20
// coroutines: a slice program is a Task that co_awaits delays (compute
// phases), synchronization-counter thresholds, and FIFO arrivals, exactly
// mirroring the poll-driven structure of the real firmware.
//
// Task is lazily started. Awaiting a Task links the awaiter as its
// continuation (symmetric transfer on completion). Exceptions propagate to
// the awaiter; for detached root tasks the simulator rethrows at sweep time.
//
// Coroutine frames come from a thread-local slab pool: simulation programs
// spawn short-lived tasks per superstep (sends, counted waits), and pooling
// the frames keeps the steady-state hot path free of heap allocation.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "util/slab_pool.hpp"

namespace anton::sim {

/// Slab pool behind every sim::Task coroutine frame on this thread.
inline util::SlabPool& taskFramePool() {
  thread_local util::SlabPool pool("task-frame");
  return pool;
}

class [[nodiscard]] Task {
 public:
  struct promise_type {
    std::coroutine_handle<> continuation;  // awaiter to resume on completion
    std::exception_ptr exception;

    /// Frames are slab-allocated (recycled per size class); oversized
    /// frames fall back to the heap inside the pool. Deletion routes through
    /// the header's origin pool, which rejects a free from a foreign thread.
    static void* operator new(std::size_t n) { return taskFramePool().alloc(n); }
    static void operator delete(void* p, std::size_t) noexcept {
      util::SlabPool::release(p);
    }

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return !handle_ || handle_.done(); }

  /// Start a task that nothing will co_await (the simulator's spawn path).
  void startDetached() {
    if (handle_ && !handle_.done()) handle_.resume();
  }

  /// Rethrow the task's stored exception, if any (detached tasks only;
  /// awaited tasks rethrow through await_resume).
  void rethrowIfFailed() const {
    if (handle_ && handle_.done() && handle_.promise().exception)
      std::rethrow_exception(handle_.promise().exception);
  }

  // Awaitable interface: `co_await subtask` runs the subtask to completion.
  bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) noexcept {
    handle_.promise().continuation = awaiter;
    return handle_;  // symmetric transfer: start the subtask now
  }
  void await_resume() {
    if (handle_ && handle_.promise().exception)
      std::rethrow_exception(handle_.promise().exception);
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace anton::sim
