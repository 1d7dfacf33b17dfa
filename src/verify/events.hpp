// Event-granular happens-before graph over a CommPlan (ISSUE 4 tentpole).
//
// PR 3's checks treated a phase as atomic, which is exactly one notch too
// coarse for the paper's no-barrier argument: whether a receive buffer may
// be single-buffered depends on whether the phase's counted *send* is issued
// before or after its counter *wait* — the dim-ordered all-reduce sends
// first, the FFT transform phases wait first, and the two shapes have
// opposite reuse safety. This graph expands every phase into its ordered
// operations and lets the checks reason about individual sends, waits, and
// buffer frees:
//
//   * one vertex per (event, round), where an event is a phase-entry anchor,
//     a counter wait (CounterExpectation), a buffer free (BufferPlan's
//     freePhase fire), a counted-send group (PlannedWrite), or a phase-exit
//     anchor, ordered within a (node, phase) by PlannedWrite::seq /
//     CounterExpectation::seq (waits and frees precede sends at equal seq);
//   * program-order edges along each (node, phase) chain and along the
//     plan's phase DAG;
//   * round-wrap edges from each node's sink phases to its source phases
//     (round r's end happens-before round r+1's start on the same node);
//   * delivery edges from each counted send to the counter waits it
//     satisfies. A send's counter may be waited in several phases (the FFT
//     reuses its per-dimension counters across the forward and inverse
//     passes), so a send feeds only the precedence-minimal wait phases not
//     strictly before it; when every matching wait is strictly before the
//     send, the send feeds the *next round's* wait instead.
//
// Buffer-reuse safety is then path existence from a buffer's free event in
// round 0 to each writer's send event in round `copies`, and a cycle in the
// graph is a static deadlock (a wait that transitively blocks the send that
// would satisfy it).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "verify/plan.hpp"

namespace anton::verify {

enum class EventKind { kPhaseEntry, kWait, kFree, kSend, kPhaseExit };

struct Event {
  EventKind kind = EventKind::kPhaseEntry;
  int node = 0;
  int phase = 0;  ///< index into CommPlan::phases
  int ref = -1;   ///< index into writes / expectations / buffers, -1 anchors
};

/// Where each write of a plan lands, as compressed rows: the unicast
/// target, or the clients its multicast tree's healthy walk reaches.
/// Malformed patterns simply deliver nowhere (the count check reports
/// them). The one answer the count check, the event graph and the timing
/// analyzer all read.
struct Delivered {
  /// Per write: its tree in plan.multicasts — the one declared under the
  /// write's pattern and source, otherwise the only tree with that id — or
  /// -1 for a unicast or a pattern no tree resolves.
  std::vector<int> tree;
  std::vector<std::uint32_t> first;  ///< per write, then the end
  std::vector<net::ClientAddr> clients;

  std::span<const net::ClientAddr> of(std::size_t write) const {
    return {clients.data() + first[write], first[write + 1] - first[write]};
  }
};

/// `expansions`, when given, are the healthy walks of plan.multicasts (in
/// order); otherwise each referenced tree is walked here.
Delivered deliveredTargets(const CommPlan& plan,
                           std::span<const TreeExpansion> expansions = {});

class EventGraph {
 public:
  /// `delivered` is deliveredTargets(plan). `rounds` is the number of
  /// template rounds to unroll (buffer checks need maxCopies + 1).
  EventGraph(const CommPlan& plan, int rounds, const Delivered& delivered);

  int rounds() const { return rounds_; }
  int numSlots() const { return int(events_.size()); }
  int numVertices() const { return int(events_.size()) * rounds_; }
  const Event& event(int slot) const { return events_[std::size_t(slot)]; }

  /// Vertex id of one event slot in one round.
  int vertex(int slot, int round) const { return slot * rounds_ + round; }
  int slotOf(int vertex) const { return vertex / rounds_; }
  int roundOf(int vertex) const { return vertex % rounds_; }

  /// Event slots of the plan records; -1 when the record's phase index is
  /// outside the plan or its node outside the shape (reported separately
  /// by the checks).
  int sendSlot(std::size_t writeIndex) const;
  int waitSlot(std::size_t expectationIndex) const;
  int freeSlot(std::size_t bufferIndex) const;
  /// Phase-entry anchor of (node, phase); -1 when out of range.
  int entrySlot(int node, int phase) const;

  /// The modeled waits (expectation indices whose phase and node are in
  /// range) on one (client, counter), ascending.
  std::span<const int> waitsOn(const net::ClientAddr& client,
                               int counterId) const;

  /// Happens-before successors of `vertex`, as a CSR slice (begin/end
  /// pointers into the adjacency array). The timing analyzer walks every
  /// edge once through this.
  const int* succBegin(int vertex) const {
    return adjEdges_.data() + adjStart_[std::size_t(vertex)];
  }
  const int* succEnd(int vertex) const {
    return adjEdges_.data() + adjStart_[std::size_t(vertex) + 1];
  }

  /// Vertices reachable from `vertex` (inclusive), as a bitmap.
  std::vector<char> reachableFrom(int vertex) const;

  /// One happens-before cycle as a vertex sequence (first == last), or
  /// empty when the graph is acyclic, i.e. statically deadlock-free.
  std::vector<int> findCycle() const;

  /// Human-readable event description, e.g.
  /// "node 3: send (ctr 200) in phase 'allreduce.x' [round 1]".
  std::string describe(int vertex) const;

 private:
  void buildSlots(const CommPlan& plan);
  void buildEdges(const CommPlan& plan, const Delivered& delivered);

  const CommPlan& plan_;
  int rounds_;
  int numPhases_;
  int numNodes_;
  std::vector<Event> events_;      ///< all slots, grouped by (node, phase)
  std::vector<int> groupStart_;    ///< (node * P + phase) -> first slot
  std::vector<int> sendSlot_;      ///< write index -> slot
  std::vector<int> waitSlot_;      ///< expectation index -> slot
  std::vector<int> freeSlot_;      ///< buffer index -> slot
  std::vector<int> waits_;         ///< by (node, client, counter, index)
  // CSR adjacency over vertices.
  std::vector<int> adjStart_;
  std::vector<int> adjEdges_;
};

}  // namespace anton::verify
