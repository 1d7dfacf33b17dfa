// End-to-end erasure recovery for counted remote writes.
//
// Anton's counted remote writes synchronize by counter thresholds alone, so
// a lost packet turns a phase barrier into a silent deadlock. Link-level CRC
// retransmission repairs bit errors, but a traversal that exhausts the
// retransmit cap *drops* its packet replica — an erasure the lossless-network
// software model would otherwise wait on forever. This layer closes the loop
// in software, the way the machine's firmware would:
//
//   - watchCounter: races a counter wait against a kernel deadline
//     (Simulator::armDeadline) and, on timeout, diagnoses *which sources are
//     short* from the client's per-source arrival tally — "node 2 still owes
//     2 packets on counter 0" instead of "the simulation hung". A counter
//     win cancels the deadline, which then leaves no trace in the schedule.
//   - DropRegistry: a sender-side replay buffer fed by the machine's drop
//     observer. Every dropped replica is recorded per denied receiver (for
//     multicast, only the subtree beyond the failed link is denied — the
//     receivers before it got their copy and must not be re-bumped).
//   - recoverCounted: the retry loop — wait with a deadline, diagnose,
//     replay exactly the lost payloads from the registry (degraded-routed,
//     so replays avoid the link that ate the original), and hard-fail with a
//     full report when the bounded resend budget is exhausted.
//
// Disarmed (no registry), every wait degenerates to a plain counter poll
// with bit-identical timing — the zero-fault path is untouched. Armed, a
// run that loses nothing keeps the disarmed run's exact schedule. The counted
// waits themselves are CountedSchedule::awaitRound (core/schedule.hpp).
#pragma once

#include <coroutine>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "verify/plan.hpp"

namespace anton::net {
class Machine;
}

namespace anton::core {

/// Per-wait recovery policy.
struct RecoveryConfig {
  sim::Time timeout = 0;        ///< per-attempt deadline
  int maxResends = 4;           ///< replay rounds before hard failure
  sim::Time resendBackoff = 0;  ///< extra deadline added per retry round
};

/// Outcome of a watched counted-write wait: how it resolved, and — when it
/// timed out — the per-source shortfall diagnosis. Carries the waiting
/// client and counter so the replay can locate the lost replicas.
struct WatchdogReport {
  bool timedOut = false;
  std::uint64_t expected = 0;  ///< the counter threshold waited for
  std::uint64_t arrived = 0;   ///< counter value when the race settled
  sim::Time resolvedAt = 0;    ///< simulated time of resolution
  net::ClientAddr dst;         ///< the waiting client
  int counterId = net::kNoCounter;

  /// One source that delivered fewer counted packets than it owes.
  struct MissingSource {
    int node = 0;
    std::uint64_t expected = 0;
    std::uint64_t arrived = 0;
  };
  std::vector<MissingSource> missing;

  /// Human-readable one-line summary ("... TIMED OUT ...; missing: node 2
  /// (0/2)").
  std::string describe() const;
};

/// Awaitable race of one counter threshold against a deadline: resumes with
/// the report when counters[counterId] >= target or `timeout` elapses,
/// whichever comes first, and retracts the loser — no stale waiter pins the
/// counter, and a cancelled deadline leaves no trace in the schedule. A
/// timeout is diagnosed: `owed` holds the cumulative per-source counts by
/// ascending source, and the report names each source that delivered fewer.
/// Sources are tallied from counter creation, so packets that arrived
/// before the wait began are credited. `owed` is a view and must outlive
/// the co_await.
struct WatchedWait {
  net::NetworkClient& client;
  int counterId;
  std::uint64_t target;
  sim::Time timeout;
  std::span<const verify::SourceCount> owed;
  WatchdogReport report;
  std::uint64_t waiter = 0;  ///< counter waiter token (0: met at once)
  sim::Simulator::DeadlineId deadline = 0;  ///< 0: none armed

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  WatchdogReport await_resume() noexcept { return std::move(report); }
};

inline WatchedWait watchCounter(net::NetworkClient& client, int counterId,
                                std::uint64_t target, sim::Time timeout,
                                std::span<const verify::SourceCount> owed = {}) {
  return {client, counterId, target, timeout, owed, {}};
}

/// Aggregate recovery activity (all exactly zero on a fault-free run).
struct RecoveryStats {
  std::uint64_t timeouts = 0;      ///< watchdog deadlines that fired
  std::uint64_t resends = 0;       ///< packets replayed from the registry
  std::uint64_t hardFailures = 0;  ///< waits that exhausted their budget
  /// Timed-out rounds forgiven because the counter advanced during the
  /// round (an upstream cascade is still draining toward us).
  std::uint64_t progressRounds = 0;
  void accumulate(const RecoveryStats& o) {
    timeouts += o.timeouts;
    resends += o.resends;
    hardFailures += o.hardFailures;
    progressRounds += o.progressRounds;
  }
};

/// Sender-side replay buffer: installs itself as the machine's drop
/// observer and records every dropped replica per denied receiver, keyed by
/// (counter, source node, receiver) for the timeout diagnosis to consume.
class DropRegistry {
 public:
  explicit DropRegistry(net::Machine& machine);
  ~DropRegistry();
  DropRegistry(const DropRegistry&) = delete;
  DropRegistry& operator=(const DropRegistry&) = delete;

  /// Dropped replicas observed since construction (never forgotten, even by
  /// prune/take — the tally is the bench's drop count).
  std::uint64_t dropsObserved() const { return drops_; }

  /// Recorded (packet, denied receiver) pairs not yet replayed.
  std::size_t pending() const { return entries_.size(); }

  /// Consume every pending replica that `srcNode` lost toward `dst` on
  /// `counterId`. Returns the packets (payloads intact) for replay; taken
  /// entries are removed so a second diagnosis cannot double-replay.
  std::vector<net::PacketPtr> take(int counterId, int srcNode,
                                   net::ClientAddr dst);

  /// Discard pending entries recorded before `before` (stale drops whose
  /// wait already hard-failed). The observed-drop tally is untouched.
  void prune(sim::Time before);

 private:
  struct Entry {
    net::PacketPtr packet;
    net::ClientAddr denied;
    sim::Time droppedAt;
  };
  net::Machine& machine_;
  std::vector<Entry> entries_;
  std::uint64_t drops_ = 0;
};

/// Thrown (out of Simulator::run) when a recoverable wait exhausts its
/// resend budget; carries the final timeout diagnosis.
class RecoveryFailure : public std::runtime_error {
 public:
  explicit RecoveryFailure(WatchdogReport r)
      : std::runtime_error("erasure recovery exhausted its resend budget: " +
                           r.describe()),
        report(std::move(r)) {}
  WatchdogReport report;
};

/// Replay every registered drop named missing by `report`: each lost
/// replica is re-posted by its original sender as a degraded-routed unicast
/// to exactly the denied receiver (re-multicasting would re-bump receivers
/// that already got their copy). Returns the number of packets replayed —
/// zero when the shortfall is not in the registry (e.g. the upstream sender
/// is itself still recovering).
std::size_t resendFromRegistry(net::Machine& machine, DropRegistry& registry,
                               const WatchdogReport& report);

/// One shared arming handle for a subsystem's counted waits: a registry to
/// replay from, the retry policy, and an optional stats sink aggregated
/// across every wait. Default-constructed hooks are disarmed.
struct RecoveryHooks {
  DropRegistry* registry = nullptr;
  RecoveryConfig config;
  RecoveryStats* stats = nullptr;
  bool armed() const { return registry != nullptr; }
};

/// What a counted wait returns: the client's own counter poll when disarmed
/// (no coroutine frame between the waiting program and the counter), the
/// recovery loop's task when armed.
class [[nodiscard]] CountedWait {
 public:
  explicit CountedWait(net::NetworkClient::CounterWait plain) : plain_(plain) {}
  explicit CountedWait(sim::Task armed)
      : plain_(std::nullopt), armed_(std::move(armed)) {}

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
    if (!plain_) return armed_.await_suspend(h);
    plain_->await_suspend(h);
    return std::noop_coroutine();
  }
  void await_resume() { armed_.await_resume(); }

 private:
  std::optional<net::NetworkClient::CounterWait> plain_;
  sim::Task armed_;
};

/// The armed form of a counted wait: await counters[counterId] >= target
/// in rounds of watchCounter. Each timeout replays the diagnosed shortfall
/// from the hooks' registry (resendFromRegistry) and re-arms with the
/// deadline stretched by resendBackoff per charged round. A round during
/// which the counter advanced AND the replay found nothing lost is
/// progress-bound (an upstream cascade still draining) and is forgiven — it
/// does not count against maxResends; after maxResends charged rounds the
/// wait throws RecoveryFailure. The wait's stats are accumulated into the
/// hooks' sink on either exit. `owed` (see WatchedWait) is a view and must
/// outlive the co_await.
sim::Task recoverCounted(net::NetworkClient& client, int counterId,
                         std::uint64_t target,
                         std::span<const verify::SourceCount> owed,
                         const RecoveryHooks& hooks);

}  // namespace anton::core
