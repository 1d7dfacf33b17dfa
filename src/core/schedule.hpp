// Counted-traffic schedule: one table per component for the counted remote
// writes of a round, the waits they feed and the receive buffers they fill.
//
// SC10 §IV rests on every counted remote write having a count known before
// the round runs. A component (the MD step, the distributed FFT, the
// dimension-ordered all-reduce) declares each node's sends once; every
// wait's arrivals are the transpose of the sends that reach its (client,
// counter), so "a wait expects what the writes deliver" is one rule. The
// live waits add one round of their arrivals per call (addRound), and the
// static plan's waits (src/verify/) are counted by the same call into the
// same flat per-source form.
//
// A send is a verify::PlannedWrite row and a buffer a verify::BufferPlan
// row, their phases and names indexing the schedule's `names`: appendTo
// copies the rows into a plan and only remaps those indices. The tables are
// flat arrays grouped by node: a 512-node machine declares tens of
// thousands of sends, and one allocation per table (instead of a few per
// node) keeps the host heap unfragmented.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/recovery.hpp"
#include "net/machine.hpp"
#include "verify/plan.hpp"

namespace anton::core {

/// One send as its receiver counts it.
struct Arrival {
  int src;
  std::uint8_t kinds;
  std::uint32_t packets;
};

/// Live state of one node's wait on one (client, counter). Counters never
/// reset, so the target is cumulative over every round of every kind.
struct WaitState {
  std::uint64_t rounds = 0;  ///< rounds awaited (drives buffer parities)
  std::uint64_t target = 0;  ///< cumulative counter target
  /// Cumulative per-source target by ascending source, kept only when
  /// recovery is armed (per-source missing diagnosis needs what each sender
  /// owes).
  std::vector<verify::SourceCount> bySource;
};

/// The component declares `names`, `waits` and `sites` once, then the sends
/// and buffers of every node (in any node order; each node's keep their
/// declaration order), then calls transpose(). It rebuilds the sends and
/// buffers whenever its counts change; the live wait state survives. Kinds
/// are mask bits the component defines (step kinds of the MD,
/// forward/inverse of the FFT): a send is issued in the rounds of its
/// `kinds`, a site counts the arrivals of its own.
struct CountedSchedule {
  /// A counter the component's programs wait on, the same on every node.
  struct Wait {
    int client;
    int counterId;
  };
  /// One plan record of a wait: the wait of counter `wait` in `phase`,
  /// counting the arrivals of `kinds` (verify::CounterExpectation).
  struct Site {
    std::uint8_t name;
    std::uint8_t phase;
    std::uint8_t wait;
    std::uint8_t kinds;
    std::int8_t seq = 0;  ///< see verify::CounterExpectation::seq
    /// Whether a node that no send reaches still has the wait, with a zero
    /// target (the FFT's gather wait of a ring position owning no lines),
    /// rather than none (the MD's bond wait of a node without bond terms).
    bool keepUnreached = false;
  };

  int numNodes = 0;
  std::vector<std::string> names{};  ///< phases, sites and buffers
  std::vector<Wait> waits{};
  std::vector<Site> sites{};
  /// Grouped by node by transpose(); `srcNode` is the sending node.
  std::vector<verify::PlannedWrite> sends{};
  /// Grouped by node (the owner, `client.node`) by transpose().
  std::vector<verify::BufferPlan> buffers{};
  std::vector<verify::BufferWriter> writers{};  ///< the buffers' ranges
  std::vector<WaitState> live{};  ///< per node, per wait

  /// Declare a buffer written in `writePhase` by `writerNodes`.
  void addBuffer(verify::BufferPlan buffer, std::uint8_t writePhase,
                 std::span<const int> writerNodes);
  /// Group the sends and buffers by node and fill every wait's arrivals
  /// from the counted sends: unicasts by their target, multicasts by the
  /// receivers of `machine`'s installed tables (null: the schedule has no
  /// multicasts). Throws std::logic_error when a counted send reaches no
  /// client or a client without a wait.
  void transpose(const net::Machine* machine = nullptr);
  /// Whether any wait has run a round.
  bool started() const;

  std::span<const verify::PlannedWrite> sendsOf(int node) const {
    return range(sends, firstSend_, std::size_t(node));
  }
  std::span<const Arrival> arrivals(int node, int wait) const {
    return range(arrivals_, firstArrival_,
                 std::size_t(node) * waits.size() + std::size_t(wait));
  }

  /// What one round of a wait in a round of `kinds` adds to `target` and,
  /// when given, to its per-source breakdown (*bySource)[first, end) (see
  /// verify::addSource): the live waits and the plan both count this way.
  static void addRound(std::span<const Arrival> arrivals, unsigned kinds,
                       std::uint64_t& target,
                       std::vector<verify::SourceCount>* bySource,
                       std::size_t first = 0);

  WaitState& state(int node, int wait) {
    return live[std::size_t(node) * waits.size() + std::size_t(wait)];
  }
  /// Advance `node`'s `wait` by one round of `arrivals` (when null, its
  /// scheduled ones) of `kinds` and await the cumulative target, armed per
  /// `hooks`: THE counted wait of every component.
  CountedWait awaitRound(net::Machine& machine, int node, int wait,
                         unsigned kinds, const RecoveryHooks& hooks,
                         const std::vector<Arrival>* arrivals = nullptr);

  /// Copy the phases [firstPhase, lastPhase] into `plan`, node by node: the
  /// sends issued there, the sites whose wait lies there (each counting one
  /// round of its kinds), and the buffers freed there. Names map to the
  /// plan's tables (added when absent); everything else is copied as is.
  void appendTo(verify::CommPlan& plan, int firstPhase, int lastPhase,
                bool recoveryArmed) const;

 private:
  /// Entries [first[i], first[i + 1]) of a table grouped by `first`.
  template <typename T>
  static std::span<const T> range(const std::vector<T>& table,
                                  const std::vector<std::uint32_t>& first,
                                  std::size_t i) {
    return {table.data() + first[i], first[i + 1] - first[i]};
  }

  std::vector<std::uint32_t> firstSend_;     ///< per node, then the end
  std::vector<std::uint32_t> firstBuffer_;   ///< per node, then the end
  std::vector<Arrival> arrivals_;            ///< by node, then wait
  std::vector<std::uint32_t> firstArrival_;  ///< per (node, wait), then end
};

}  // namespace anton::core
