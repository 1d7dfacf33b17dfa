// Commodity-cluster baseline: a LogGP-style model of a Xeon/InfiniBand
// cluster (the paper's comparison platform, running Desmond [12, 15]).
//
// LogGP (Alexandrov et al.) abstracts a network by L (wire+switch latency),
// o (per-message send/receive software overhead), g (per-message gap: the
// NIC's message-rate limit), and G (per-byte gap: inverse bandwidth).
// Defaults are calibrated to published DDR2 InfiniBand measurements: ~2.16 us
// small-message ping-pong (Roadrunner, Table 1 [7]), ~1.5 GB/s effective
// bandwidth, and a per-message cost that reproduces the InfiniBand curve of
// SC10 Fig. 7.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace anton::cluster {

struct LogGPParams {
  double sendOverheadUs = 0.40;  ///< o_s: CPU time to issue a send
  double recvOverheadUs = 0.46;  ///< o_r: CPU time to complete a receive
  double latencyUs = 1.30;       ///< L: NIC-to-NIC through the switch
  double gapUs = 0.55;           ///< g: minimum spacing between messages
  double gapPerByteUs = 0.00065; ///< G: inverse bandwidth (~1.5 GB/s)

  /// One-way small-message software-to-software latency implied by the
  /// parameters (o_s + L + o_r).
  double pingPongUs() const { return sendOverheadUs + latencyUs + recvOverheadUs; }
};

/// A flat cluster: N nodes on a full-bisection switch. Only the endpoints
/// are modeled (per-node NIC gap), matching LogGP's assumptions.
class ClusterMachine {
 public:
  struct Message {
    int src = 0;
    int dst = 0;
    int tag = 0;
    std::size_t bytes = 0;
    std::shared_ptr<const std::vector<double>> data;  ///< optional payload
  };

  ClusterMachine(sim::Simulator& sim, int numNodes, LogGPParams params = {});

  sim::Simulator& sim() { return sim_; }
  int numNodes() const { return numNodes_; }
  const LogGPParams& params() const { return params_; }

  /// Coroutine send: charges o_s to the caller; the message departs when the
  /// NIC is free (gap g + G*bytes between messages) and arrives after
  /// L + G*bytes.
  sim::Task send(int src, int dst, int tag, std::size_t bytes,
                 std::shared_ptr<const std::vector<double>> data = nullptr);

  /// Awaitable receive: matches (src, tag) FIFO; resumes o_r after the
  /// message has arrived. src = kAnySource matches any sender. A nonzero
  /// `timeout` arms a kernel deadline: if no matching message lands in
  /// time the waiter is retracted and await_resume throws a diagnostic
  /// naming (dst, src, tag) — a lost message becomes a loud failure instead
  /// of a silent hang. A match retracts the deadline, which then leaves no
  /// trace; with timeout 0 (default) none is armed.
  static constexpr int kAnySource = -1;
  struct RecvAwaiter {
    ClusterMachine& m;
    int dst;
    int src;
    int tag;
    Message result;
    sim::Time timeout = 0;
    bool timedOut = false;
    sim::Simulator::DeadlineId deadline = 0;
    bool await_ready() noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    Message await_resume();
  };
  RecvAwaiter recv(int dst, int src, int tag, sim::Time timeout = 0) {
    return RecvAwaiter{*this, dst, src, tag, {}, timeout};
  }

  std::uint64_t messagesSent() const { return messagesSent_; }

 private:
  friend struct RecvAwaiter;
  struct Waiter {
    int src;
    int tag;
    RecvAwaiter* awaiter;
    std::coroutine_handle<> handle;
  };
  struct NodeState {
    sim::Time nicFreeAt = 0;
    std::deque<Message> arrived;
    std::deque<Waiter> waiters;
  };

  void deliver(Message msg);
  void tryMatch(NodeState& node);
  static bool matches(const Waiter& w, const Message& m) {
    return (w.src == kAnySource || w.src == m.src) && w.tag == m.tag;
  }

  sim::Simulator& sim_;
  int numNodes_;
  LogGPParams params_;
  std::vector<NodeState> nodes_;
  std::uint64_t messagesSent_ = 0;
};

}  // namespace anton::cluster
