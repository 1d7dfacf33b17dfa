// Static communication-plan model.
//
// The paper's central premise is that Anton's inter-node communication is
// statically known: multicast trees are precomputed tables, counted remote
// writes deliver pre-known packet counts against preloaded counter targets,
// and receive buffers are preallocated with their reuse justified by counter
// dataflow rather than barriers (SC10 §IV). That makes every MD phase's
// communication checkable *before a single simulated cycle runs*. This
// header defines the plan representation that the subsystems (md/, fft/,
// core/, cluster/) emit and that checks.hpp verifies.
//
// A CommPlan describes one template round (an MD superstep, an all-reduce
// call, one FFT pair, ...) executed identically by every node. Its rows are
// flat and index-based: names are indices into the plan's string tables
// (`phases`, and `names` for sites and buffers), and the variable-length
// part of a row is a Range into one of the plan-wide arrays.
//   * phases     — the per-node program as a DAG of named phase units. Within
//                  a phase, counter waits and buffer reads precede the sends
//                  that phase issues; edges are per-node program order.
//   * writes     — counted-remote-write groups: source node, unicast target
//                  or multicast pattern, counter, packets per round. The
//                  same row is a core::CountedSchedule send.
//   * expectations — counter wait sites: client, counter, per-round target
//                  increment, per-source breakdown (a Range of `sources`),
//                  and whether recovery (core::recoverCounted) is armed
//                  on it.
//   * multicasts — the per-node MulticastEntry rows of each pattern a write
//                  references (a Range of `treeRows`, sorted by node), with
//                  the fan-out's declared destination set (a Range of
//                  `treeDests`, carried independently so the tree can be
//                  checked against intent).
//   * buffers    — preallocated receive regions with their copy count, the
//                  phase whose counter fire retires the previous round's
//                  contents (the §4 no-barrier reuse argument), and their
//                  writers (a Range of `writers`). The same row is a
//                  core::CountedSchedule buffer.
// The views below (bySource, tree, writersOf, phaseName, nameOf) read
// an out-of-table index or range as empty or "?", so a malformed plan cannot
// make a reader leave its tables; verifyPlan reports it as "plan.index".
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "util/torus_coord.hpp"

namespace anton::verify {

/// Rows [begin, end) of one of the plan-wide arrays.
struct Range {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// One group of counted remote writes a node issues per round.
struct PlannedWrite {
  int srcNode = 0;
  std::uint16_t phase = 0;  ///< issuing phase (index into CommPlan::phases)
  /// Round kinds the write is issued on: mask bits a core::CountedSchedule
  /// component defines (MD step kinds, FFT directions). Not part of a plan.
  std::uint8_t kinds = 1;
  bool inOrder = false;
  /// True for uncounted FIFO traffic (migration records, SC10 §IV-B5): the
  /// receiver drains it after a separate counted flush write.
  bool fifo = false;
  /// Intra-phase program-order position of this send relative to the
  /// phase's counter waits (CounterExpectation::seq). Within one (node,
  /// phase), events order by ascending seq; at equal seq, waits and buffer
  /// frees precede sends. The default of 1 against the waits' default of 0
  /// encodes the common wait-read-then-send phase shape; phases whose live
  /// code sends *before* waiting (the dim-ordered all-reduce, the cluster
  /// exchange rounds, the migration flush) must say so explicitly or the
  /// event-granular checks will model an ordering the hardware never had.
  int seq = 1;
  int counterId = net::kNoCounter;
  int pattern = net::kNoMulticast;  ///< multicast pattern id, or kNoMulticast
  net::ClientAddr dst{-1, -1};      ///< unicast target (when no pattern)
  std::uint32_t packets = 1;        ///< packets per round
  /// Payload bytes per packet, for the timing analyzer's link-occupancy
  /// pricing. 0 means unknown: the analyzer then charges the header-only
  /// wire size (its documented conservatism, DESIGN.md §12) and the field is
  /// omitted from canonical snapshots so existing goldens stay byte-stable.
  std::uint32_t bytes = 0;
};

/// Packets per round one source node delivers to a wait.
struct SourceCount {
  int src = 0;
  std::uint64_t packets = 0;
};

/// One counter wait site. Several records may target the same (client,
/// counter) — e.g. the FFT gather counter is waited once per transform —
/// and count consistency compares total planned writes against the sum of
/// the records' per-round increments.
struct CounterExpectation {
  std::uint16_t site = 0;   ///< stable site name (index into CommPlan::names)
  std::uint16_t phase = 0;  ///< phase containing the wait (and its reads)
  net::ClientAddr client{-1, -1};
  int counterId = net::kNoCounter;
  std::uint64_t perRound = 0;  ///< counter increment this record expects
  /// Optional per-source breakdown: CommPlan::sources rows by ascending
  /// source, each source once.
  Range bySource{};
  /// Whether recovery (core::recoverCounted) is armed on this wait; a false
  /// value is reported as a recovery-coverage lint.
  bool recoveryArmed = false;
  /// Intra-phase position of the wait (see PlannedWrite::seq): waits default
  /// to 0 so they precede the phase's sends unless the extractor says
  /// otherwise.
  int seq = 0;
};

/// One forwarding-table row of a multicast tree: (node index, entry), the
/// row layout core::MulticastTree uses.
using TreeRow = std::pair<int, net::MulticastEntry>;

/// One multicast tree as planned. Carries its own rows so malformed plans
/// can be represented without installing them into a live machine.
struct MulticastPlanEntry {
  int patternId = -1;
  int srcNode = 0;
  Range rows{};  ///< CommPlan::treeRows, sorted by node
  /// The destination clients the fan-out is *supposed* to reach, computed
  /// independently of the tree (e.g. from the MD import groups):
  /// CommPlan::treeDests rows.
  Range dests{};
};

/// A node (and issuing phase) that writes into a buffer each round.
struct BufferWriter {
  int node = 0;
  std::uint16_t phase = 0;  ///< index into CommPlan::phases
};

/// One preallocated receive region on a client.
struct BufferPlan {
  std::uint16_t name = 0;  ///< index into CommPlan::names
  net::ClientAddr client{-1, -1};
  std::uint32_t base = 0;
  std::uint32_t bytes = 0;  ///< full span, including all copies
  /// Reuse distance in rounds: 1 for in-place regions, 2 for
  /// parity-double-buffered regions.
  int copies = 1;
  /// Phase whose counter wait + reads retire the previous round's contents.
  std::uint16_t freePhase = 0;
  Range writers{};  ///< CommPlan::writers rows
};

/// A multicast tree as its walk reads it: one plan record's rows and
/// destinations, or a tree built outside any plan (a repair).
struct TreeView {
  int patternId = -1;
  int srcNode = 0;
  std::span<const TreeRow> rows;  ///< sorted by node
  std::span<const net::ClientAddr> dests;
};

/// Add `packets` from `src` to the per-source run table[first, end), kept
/// by ascending source with each source once (repeats are summed): the one
/// way a per-source breakdown is built, by plans and live waits alike.
void addSource(std::vector<SourceCount>& table, std::size_t first, int src,
               std::uint64_t packets);

struct CommPlan {
  std::string name;
  util::TorusShape shape{1, 1, 1};
  std::vector<std::string> phases;
  /// Program-order DAG over `phases` (indices): from -> to.
  std::vector<std::pair<int, int>> phaseEdges;
  std::vector<std::string> names;  ///< wait-site and buffer names
  std::vector<PlannedWrite> writes;
  std::vector<CounterExpectation> expectations;
  std::vector<MulticastPlanEntry> multicasts;
  std::vector<BufferPlan> buffers;
  // The plan-wide arrays the rows' ranges index.
  std::vector<SourceCount> sources;
  std::vector<TreeRow> treeRows;
  std::vector<net::ClientAddr> treeDests;
  std::vector<BufferWriter> writers;

  std::span<const SourceCount> bySource(const CounterExpectation& e) const {
    return slice(sources, e.bySource);
  }
  std::span<const BufferWriter> writersOf(const BufferPlan& b) const {
    return slice(writers, b.writers);
  }
  TreeView tree(const MulticastPlanEntry& m) const {
    return {m.patternId, m.srcNode, slice(treeRows, m.rows),
            slice(treeDests, m.dests)};
  }
  /// The phase / name at an index; "?" outside the table.
  const std::string& phaseName(std::size_t phase) const;
  const std::string& nameOf(std::size_t name) const;

  // Builders. Names go in by string and are stored as indices; a row's
  // variable-length part is appended to its plan-wide array.
  /// Index of a phase name, appending it when absent.
  int addPhase(std::string_view phase);
  /// Add a program-order edge (phases appended when absent).
  void addPhaseEdge(std::string_view from, std::string_view to);
  /// Index of a site or buffer name, appending it when absent.
  int addName(std::string_view name);
  PlannedWrite& addWrite(std::string_view phase, PlannedWrite w);
  /// `bySource` in any order; repeated sources are summed.
  CounterExpectation& addExpectation(std::string_view site,
                                     std::string_view phase,
                                     CounterExpectation e,
                                     std::span<const SourceCount> bySource);
  /// `rows` in any order (stored sorted by node).
  MulticastPlanEntry& addTree(int patternId, int srcNode,
                              std::span<const TreeRow> rows,
                              std::span<const net::ClientAddr> dests);
  BufferPlan& addBuffer(std::string_view name, std::string_view freePhase,
                        BufferPlan b, std::span<const BufferWriter> writers);

 private:
  template <typename T>
  static std::span<const T> slice(const std::vector<T>& table, Range r) {
    if (r.begin > r.end || r.end > table.size()) return {};
    return {table.data() + r.begin, r.end - r.begin};
  }
};

/// A directed torus link, named by its exit side. Degraded-mode analysis
/// declares the links taken out of service as these: route tracing and
/// multicast tree expansion both honor the same declaration.
struct TorusLink {
  int node = 0;
  int dim = 0;
  int sign = +1;
  friend constexpr auto operator<=>(const TorusLink&,
                                    const TorusLink&) = default;
};

/// Result of statically walking a multicast tree from its source.
struct TreeExpansion {
  std::vector<net::ClientAddr> reached;  ///< delivered destination clients
  std::vector<int> visited;              ///< nodes the packet replicates over
  /// The tree link each visited node was entered by, parallel to `visited`
  /// (node -1 for the source).
  std::vector<TorusLink> enteredBy;
  bool cycle = false;                    ///< a link walk revisited a node
  bool dimOrdered = true;  ///< every root-to-leaf path is dimension-ordered
  /// Nodes reached by a link whose table entry is empty or missing: the
  /// replica would be dropped with a hardware error at run time.
  std::vector<int> emptyEntryNodes;
  /// Entry-table nodes the walk never reaches (dead table rows), in row
  /// order (ascending node).
  std::vector<int> unreachedEntries;
  /// Tree links the walk could not take because they are declared down;
  /// the subtree behind each is lost (degraded expansion only).
  std::vector<TorusLink> cutLinks;
};

/// Walk `tree` from its source as the hardware fans it out, finding each
/// node's row by binary search. Given down links (degraded expansion), the
/// walk stops at them, recording each cut in `cutLinks`; destinations
/// behind a cut drop out of `reached`.
TreeExpansion expandTree(const TreeView& tree, const util::TorusShape& shape,
                         const std::vector<TorusLink>& downLinks = {});

}  // namespace anton::verify
