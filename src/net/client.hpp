// Network clients: the endpoints of Anton's communication fabric.
//
// Every client has a local memory that directly accepts write packets and a
// bank of synchronization counters incremented as counted packets commit
// (SC10 §III-B). The memory is a view into the owning Machine's one
// client-memory mapping; the counter bank is allocated on first use.
// Processing slices additionally own a hardware-managed message FIFO for
// traffic whose pattern cannot be fixed in advance (§III-C, used for
// migration). Accumulation memories cannot send and apply
// 4-byte-wise adds for accumulation packets.
#pragma once

#include <coroutine>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <span>
#include <stdexcept>
#include <vector>

#include "net/packet.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace anton::net {

class Machine;

/// A FIFO over a grow-only vector: pops advance a head index, and the vector
/// is cleared (capacity retained) whenever the last element is popped, so a
/// queue that drains between bursts never reallocates and an idle one never
/// allocates at all.
template <typename T>
class RecyclingQueue {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  void push(T v) { items_.push_back(std::move(v)); }
  const T& front() const { return items_[head_]; }
  T pop() {
    T v = std::move(items_[head_++]);
    if (empty()) {
      items_.clear();
      head_ = 0;
    }
    return v;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

/// One synchronization counter: a monotonically increasing packet count plus
/// the list of wake actions polling it for a threshold (coroutine resumes
/// and watchdog callbacks alike). Waiters carry a cancellation token so the
/// loser of a counter/deadline race can be retracted instead of lingering
/// forever (counters never reset, so an unmet threshold would otherwise pin
/// its callback for the life of the client). A cancellable waiter whose
/// threshold is met stays parked, `due`, until its wake runs a poll latency
/// later, so it can be retracted up to that moment.
struct SyncCounter {
  std::uint64_t value = 0;
  struct Waiter {
    std::uint64_t target;
    std::uint64_t token;  ///< cancellation handle (0 = not cancellable)
    std::function<void()> wake;
    bool due = false;     ///< met; its wake is scheduled
  };
  std::vector<Waiter> waiters;
};

class NetworkClient {
 public:
  /// `mem` is this client's slice of the machine's client-memory mapping.
  NetworkClient(Machine& machine, ClientAddr addr, std::span<std::byte> mem,
                int numCounters);
  virtual ~NetworkClient() = default;
  NetworkClient(const NetworkClient&) = delete;
  NetworkClient& operator=(const NetworkClient&) = delete;

  ClientAddr addr() const { return addr_; }
  Machine& machine() { return machine_; }

  /// Whether this client type can inject packets (accumulation memories
  /// cannot; SC10 §III-A).
  virtual bool canSend() const { return true; }

  // --- local memory (host-visible for verification and setup) ---
  std::span<const std::byte> memory() const { return mem_; }
  std::size_t memoryBytes() const { return mem_.size(); }
  void hostWrite(std::uint32_t address, const void* data, std::size_t n);
  template <typename T>
  T read(std::uint32_t address) const {
    static_assert(std::is_trivially_copyable_v<T>);
    if (address + sizeof(T) > mem_.size())
      throw std::out_of_range("NetworkClient::read out of range");
    T v;
    std::memcpy(&v, mem_.data() + address, sizeof(T));
    return v;
  }

  // --- synchronization counters ---
  int numCounters() const { return numCounters_; }
  std::uint64_t counterValue(int id) const {
    checkCounter(id);
    return counters_.empty() ? 0 : counters_[std::size_t(id)].value;
  }

  /// Awaitable: suspend until counters[id] >= target, then resume after the
  /// polling latency (local poll for slices/HTIS, cross-ring poll for
  /// accumulation memories). Counters are cumulative and never reset, so
  /// software tracks absolute targets across phases — this mirrors how the
  /// real firmware avoids reset races.
  struct CounterWait {
    NetworkClient& client;
    int id;
    std::uint64_t target;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const;
    void await_resume() const noexcept {}
  };
  CounterWait waitCounter(int id, std::uint64_t target) {
    checkCounter(id);
    return CounterWait{*this, id, target};
  }

  /// One-shot callback: invoke `fn` (after this client's poll latency) once
  /// counters[id] >= target; scheduled immediately if already met. The
  /// machinery behind the counted wait's deadline race
  /// (core::watchCounter, core/recovery.hpp).
  /// Returns a token for cancelCounterWaiter, or 0 when the threshold was
  /// already met (the callback is then a scheduled event, not a waiter).
  std::uint64_t onCounter(int id, std::uint64_t target, std::function<void()> fn);

  /// Retract a pending onCounter callback by its token: one still waiting
  /// for its threshold, or met with its wake not yet run. Returns true if
  /// the waiter was found (and removed) before it fired. Cancelling an
  /// already-woken or unknown token is a harmless no-op.
  bool cancelCounterWaiter(int id, std::uint64_t token);

  /// Number of wake actions currently parked on counter `id` (observability
  /// for leak tests and diagnostics).
  std::size_t counterWaiters(int id) const {
    checkCounter(id);
    return counters_.empty() ? 0 : counters_[std::size_t(id)].waiters.size();
  }

  /// Arrival tally (source node -> packets) of a counter. Sources are
  /// tracked from counter creation — every counted delivery records its
  /// source node — so a deadline race that starts mid-stream (after packets
  /// already arrived) still sees the full history and does not overstate
  /// the missing packets.
  std::map<int, std::uint64_t> counterSources(int id) const;

  /// Latency of one successful poll of this client's counters, as seen by
  /// software on a processing slice of the same node.
  virtual sim::Time pollLatency() const;

  /// Commit an arriving packet: write/accumulate payload, bump the counter,
  /// wake pollers. Called by the machine at the packet's delivery time.
  virtual void deliver(const PacketPtr& p);

  // --- sending (programs running on this client) ---

  /// Parameters for a send issued by software on this client. The awaitable
  /// returned by send() charges the packet-assembly time to the caller and
  /// injects the packet so that its pipeline overlaps that assembly.
  struct SendArgs {
    PacketType type = PacketType::kWrite;
    ClientAddr dst;
    int multicastPattern = kNoMulticast;
    int counterId = kNoCounter;
    std::uint32_t address = 0;
    bool inOrder = false;
    bool degradedRoute = false;  ///< replay: route around marked-failed links
    PayloadPtr payload;
  };

  /// Fire-and-forget injection at the current simulated time (assembly time
  /// is part of the packet pipeline, not charged to any caller). Returns the
  /// packet for inspection.
  PacketPtr post(const SendArgs& args);

  /// Coroutine form: `co_await client.send(args)` — the caller is busy for
  /// the assembly time, overlapping the packet's network pipeline.
  sim::Task send(SendArgs args);

 protected:
  void bumpCounter(int id, sim::Time now, int srcNode = -1);
  void checkCounter(int id) const {
    if (id < 0 || id >= numCounters())
      throw std::out_of_range("bad sync counter id");
  }

  Machine& machine_;
  ClientAddr addr_;
  std::span<std::byte> mem_;

 private:
  /// Run and unpark the due waiter `token` of counter `id`, unless it was
  /// retracted meanwhile.
  void wakeDue(int id, std::uint64_t token);
  /// Counter `id` (unchecked), sizing the bank on first use.
  SyncCounter& counter(int id) {
    if (counters_.empty()) counters_.resize(std::size_t(numCounters_));
    return counters_[std::size_t(id)];
  }

  int numCounters_;
  std::vector<SyncCounter> counters_;  ///< empty until first used
  std::uint64_t waiterSeq_ = 0;  ///< cancellation-token source (0 reserved)
  /// Per-(counter, source-node) arrival tally, maintained from the first
  /// counted delivery onward: a flat open-addressing table of (key, count)
  /// cells keyed by (id << 32 | node), grown by doubling at half load, plus
  /// a memo of the last cell hit for same-source streams. The bump is on
  /// the delivery hot path; the per-counter view the timeout diagnosis
  /// reads is assembled on demand in counterSources().
  struct TallyCell {
    std::uint64_t key;
    std::uint64_t count;
  };
  static constexpr std::uint64_t kFreeCell = ~std::uint64_t(0);
  static std::uint64_t tallyKey(int id, int srcNode) {
    return (std::uint64_t(std::uint32_t(id)) << 32) | std::uint32_t(srcNode);
  }
  /// Index of `key`'s cell, inserting it (count 0) if absent.
  std::size_t tallyCell(std::uint64_t key);
  std::vector<TallyCell> tally_;  ///< power-of-two size, or empty
  std::size_t tallyUsed_ = 0;
  std::size_t lastTally_ = 0;  ///< the memo: index of the last cell hit
};

/// A processing slice: one Tensilica core plus two geometry cores. Programs
/// (sim::Task coroutines) model the Tensilica firmware; the message FIFO
/// accepts arbitrary traffic.
class ProcessingSlice final : public NetworkClient {
 public:
  using NetworkClient::NetworkClient;

  void deliver(const PacketPtr& p) override;

  /// Awaitable: pop the next FIFO message (suspends while empty). The resume
  /// carries the packet; polling latency applies.
  struct FifoWait {
    ProcessingSlice& slice;
    PacketPtr result;
    bool await_ready() noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    PacketPtr await_resume() noexcept { return std::move(result); }
  };
  FifoWait receiveFifo() { return FifoWait{*this, nullptr}; }

  /// Non-blocking pop: the next queued FIFO message, or null when empty.
  /// Used after a flush counter guarantees all messages have arrived.
  PacketPtr pollFifo() { return fifo_.empty() ? nullptr : fifo_.pop(); }

  std::size_t fifoDepth() const { return fifo_.size(); }
  std::size_t fifoHighWater() const { return fifoHighWater_; }

 private:
  friend struct FifoWait;
  void tryWakeFifoWaiter(sim::Time now);

  RecyclingQueue<PacketPtr> fifo_;
  std::size_t fifoHighWater_ = 0;
  struct FifoWaiterRef {
    FifoWait* wait;
    std::coroutine_handle<> handle;
  };
  RecyclingQueue<FifoWaiterRef> fifoWaiters_;
};

/// The high-throughput interaction subsystem endpoint. Behaviorally a client
/// with memory, counters and send capability; the pairwise-interaction
/// pipelines themselves are modeled by the MD layer as calibrated compute
/// phases on this client.
class Htis final : public NetworkClient {
 public:
  using NetworkClient::NetworkClient;
};

/// Accumulation memory: accepts write and accumulation packets; accumulation
/// adds the payload in 4-byte two's-complement quantities (fixed-point force
/// and charge summation). Cannot send; its counters are polled by slices
/// across the on-chip ring and therefore cost more to poll (SC10 §III-B).
class AccumulationMemory final : public NetworkClient {
 public:
  using NetworkClient::NetworkClient;

  bool canSend() const override { return false; }
  sim::Time pollLatency() const override;
  void deliver(const PacketPtr& p) override;
};

}  // namespace anton::net
