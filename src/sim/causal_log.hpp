// Causal-order log of the serial event kernel.
//
// Behind a thread-local pointer (causalOracle()), the Simulator records
// each executed event's (time, seq, causal parent, attributed node, link
// flag). The consumer is the timing oracle
// (`verify_plans --timing-oracle`, DESIGN.md §12): it replays the live ping,
// all-reduce and MD schedules with a log attached, requires them to stay
// bit-identical to the unlogged runs, reports the attributed record count,
// and holds the measured completion to the static critical-path bound of
// verify::analyzeTiming. Determinism tests pin the log's digest as a second
// fingerprint of the schedule.
//
// Attribution model:
//   * parent   — the seq of the event whose execution scheduled this one
//                (kNoCausalParent for events scheduled outside any event,
//                e.g. test setup at time zero).
//   * node     — the machine node the event acts on. net::Machine marks its
//                cross-node and local-delivery scheduling points explicitly
//                (ScopedCausalNodeHint); everything else inherits the
//                executing event's node.
//   * link     — true when the schedule point was a torus-link crossing
//                (Machine::forwardOnLink); inherited attribution never is.
//   * epoch    — the Simulator::reset() generation: seqs restart on reset,
//                so records of different generations must not alias.
//
// Recording must not perturb the schedule: it happens strictly at
// schedule/execute points the kernel visits anyway, and with no log
// attached the hooks are a single thread-local pointer test. Batched link
// drains attribute each arrival at its reserveSeq() point — the link
// traversal that caused it, not the drain event that later routes it
// (tests/determinism_test.cpp pins the resulting trace digest).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace anton::sim {

inline constexpr std::uint64_t kNoCausalParent = ~std::uint64_t(0);

/// One executed event, as the oracle saw it.
struct CausalRecord {
  Time t = 0;              ///< execution time
  std::uint64_t seq = 0;   ///< kernel sequence number (unique per epoch)
  std::uint64_t parent = kNoCausalParent;  ///< scheduling event's seq
  std::int32_t node = -1;  ///< attributed machine node, -1 = host/unknown
  std::uint16_t epoch = 0; ///< Simulator::reset() generation
  std::uint8_t link = 0;   ///< 1 when scheduled across a torus link
  friend bool operator==(const CausalRecord&, const CausalRecord&) = default;
};

class CausalLog {
 public:
  /// Note an event scheduled under seq `seq`. Insert-if-absent: an earlier
  /// explicit note (the batched-drain reserveSeq point) wins over the
  /// kernel's default note at atReserved() time. `node` < 0 inherits the
  /// scoped hint or, failing that, the executing event's node.
  void noteScheduled(std::uint64_t seq, std::int32_t node = -1,
                     bool link = false) {
    pending_.try_emplace(seq, Pending{node >= 0 ? node
                                      : hintNode_ >= 0 ? hintNode_
                                                       : executingNode_,
                                      executingSeq_,
                                      link || (node < 0 && hintLink_)});
  }

  /// The kernel is about to run the event at (t, seq): append its record
  /// and make it the causal context for everything it schedules.
  void onExecute(Time t, std::uint64_t seq) {
    Pending p;
    if (auto it = pending_.find(seq); it != pending_.end()) {
      p = it->second;
      pending_.erase(it);
    }
    records_.push_back(
        {t, seq, p.parent, p.node, epoch_, std::uint8_t(p.link ? 1 : 0)});
    executingSeq_ = seq;
    executingNode_ = p.node;
  }

  /// The event's callback returned: leave its causal context.
  void onExecuteDone() {
    executingSeq_ = kNoCausalParent;
    executingNode_ = -1;
  }

  /// A scheduled event was discarded unexecuted (cancelled or swept by
  /// reset()).
  void onDiscard(std::uint64_t seq) { pending_.erase(seq); }

  /// Simulator::reset(): seq numbers restart, so records from different
  /// generations must not alias. Bumps the epoch and drops pending notes
  /// (reset() discards their events too).
  void onReset() {
    ++epoch_;
    pending_.clear();
    executingSeq_ = kNoCausalParent;
    executingNode_ = -1;
  }

  const std::vector<CausalRecord>& records() const { return records_; }

  void clear() {
    records_.clear();
    pending_.clear();
    epoch_ = 0;
    executingSeq_ = kNoCausalParent;
    executingNode_ = -1;
  }

  /// FNV-1a over every record, field by field — the trace's fingerprint,
  /// pinned by tests/determinism_test.cpp.
  std::uint64_t digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    };
    for (const CausalRecord& r : records_) {
      mix(std::uint64_t(r.t));
      mix(r.seq);
      mix(r.parent);
      mix(std::uint64_t(std::int64_t(r.node)));
      mix(std::uint64_t(r.epoch) << 8 | r.link);
    }
    return h;
  }

 private:
  friend class ScopedCausalNodeHint;

  struct Pending {
    std::int32_t node = -1;
    std::uint64_t parent = kNoCausalParent;
    bool link = false;
  };

  std::vector<CausalRecord> records_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t executingSeq_ = kNoCausalParent;
  std::int32_t executingNode_ = -1;
  std::int32_t hintNode_ = -1;
  bool hintLink_ = false;
  std::uint16_t epoch_ = 0;
};

/// This thread's attached oracle log, or nullptr (the default: the kernel
/// hooks reduce to one pointer test and record nothing). Thread-local
/// because serve workers each own an arena.
inline CausalLog*& causalOracle() {
  thread_local CausalLog* log = nullptr;
  return log;
}

/// RAII: attach a log to this thread's kernel hooks for a scope.
class ScopedCausalOracle {
 public:
  explicit ScopedCausalOracle(CausalLog& log) : saved_(causalOracle()) {
    causalOracle() = &log;
  }
  ~ScopedCausalOracle() { causalOracle() = saved_; }
  ScopedCausalOracle(const ScopedCausalOracle&) = delete;
  ScopedCausalOracle& operator=(const ScopedCausalOracle&) = delete;

 private:
  CausalLog* saved_;
};

/// RAII: attribute every event scheduled in this scope to `node` (used by
/// net::Machine around its cross-node and local-delivery schedule points).
/// No-op when no log is attached.
class ScopedCausalNodeHint {
 public:
  ScopedCausalNodeHint(std::int32_t node, bool link)
      : log_(causalOracle()) {
    if (log_ == nullptr) return;
    savedNode_ = log_->hintNode_;
    savedLink_ = log_->hintLink_;
    log_->hintNode_ = node;
    log_->hintLink_ = link;
  }
  ~ScopedCausalNodeHint() {
    if (log_ == nullptr) return;
    log_->hintNode_ = savedNode_;
    log_->hintLink_ = savedLink_;
  }
  ScopedCausalNodeHint(const ScopedCausalNodeHint&) = delete;
  ScopedCausalNodeHint& operator=(const ScopedCausalNodeHint&) = delete;

 private:
  CausalLog* log_;
  std::int32_t savedNode_ = -1;
  bool savedLink_ = false;
};

}  // namespace anton::sim
