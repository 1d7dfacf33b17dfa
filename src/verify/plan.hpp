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
// call, one FFT pair, ...) executed identically by every node:
//   * phases     — the per-node program as a DAG of named phase units. Within
//                  a phase, counter waits and buffer reads precede the sends
//                  that phase issues; edges are per-node program order.
//   * writes     — counted-remote-write groups: source node, unicast target
//                  or multicast pattern, counter, packets per round.
//   * expectations — counter wait sites: client, counter, per-round target
//                  increment, optional per-source breakdown, and whether a
//                  RecoverableCountedWrite is armed on the wait.
//   * multicasts — the per-node MulticastEntry tables of each pattern a
//                  write references, with the fan-out's declared destination
//                  set (carried independently so the tree can be checked
//                  against intent).
//   * buffers    — preallocated receive regions with their copy count and
//                  the phase whose counter fire retires the previous round's
//                  contents (the §4 no-barrier reuse argument).
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "util/torus_coord.hpp"

namespace anton::verify {

/// One group of counted remote writes a node issues per round.
struct PlannedWrite {
  std::string phase;                ///< issuing phase (CommPlan::phases name)
  int srcNode = 0;
  net::ClientAddr dst{-1, -1};      ///< unicast target (when no pattern)
  int pattern = net::kNoMulticast;  ///< multicast pattern id, or kNoMulticast
  int counterId = net::kNoCounter;
  std::uint64_t packets = 1;        ///< packets per round
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
  /// Payload bytes per packet, for the timing analyzer's link-occupancy
  /// pricing. 0 means unknown: the analyzer then charges the header-only
  /// wire size (its documented conservatism, DESIGN.md §12) and the field is
  /// omitted from canonical snapshots so existing goldens stay byte-stable.
  std::uint32_t bytes = 0;
};

/// One counter wait site. Several records may target the same (client,
/// counter) — e.g. the FFT gather counter is waited once per transform —
/// and count consistency compares total planned writes against the sum of
/// the records' per-round increments.
struct CounterExpectation {
  std::string site;   ///< stable site name, e.g. "md.forces"
  std::string phase;  ///< phase containing the wait (and subsequent reads)
  net::ClientAddr client{-1, -1};
  int counterId = net::kNoCounter;
  std::uint64_t perRound = 0;  ///< counter increment this record expects
  /// Optional per-source breakdown (srcNode -> packets per round).
  std::map<int, std::uint64_t> bySource;
  /// Whether a RecoverableCountedWrite watchdog is armed on this wait; a
  /// false value is reported as a recovery-coverage lint.
  bool recoveryArmed = false;
  /// Intra-phase position of the wait (see PlannedWrite::seq): waits default
  /// to 0 so they precede the phase's sends unless the extractor says
  /// otherwise.
  int seq = 0;
};

/// The per-node table entries of one multicast pattern, as planned. Carries
/// its own tree so malformed plans can be represented without installing
/// them into a live machine.
struct MulticastPlanEntry {
  int patternId = -1;
  int srcNode = 0;
  std::map<int, net::MulticastEntry> entries;  ///< node index -> table entry
  /// The destination clients the fan-out is *supposed* to reach, computed
  /// independently of the tree (e.g. from the MD import groups).
  std::vector<net::ClientAddr> declaredDests;
};

/// A node (and issuing phase) that writes into a buffer each round.
struct BufferWriter {
  int node = 0;
  std::string phase;
};

/// One preallocated receive region on a client.
struct BufferPlan {
  std::string name;
  net::ClientAddr client{-1, -1};
  std::uint32_t base = 0;
  std::uint32_t bytes = 0;  ///< full span, including all copies
  /// Reuse distance in rounds: 1 for in-place regions, 2 for
  /// parity-double-buffered regions.
  int copies = 1;
  /// Phase whose counter wait + reads retire the previous round's contents.
  std::string freePhase;
  std::vector<BufferWriter> writers;
};

struct CommPlan {
  std::string name;
  util::TorusShape shape{1, 1, 1};
  std::vector<std::string> phases;
  /// Program-order DAG over `phases` (indices): from -> to.
  std::vector<std::pair<int, int>> phaseEdges;
  std::vector<PlannedWrite> writes;
  std::vector<CounterExpectation> expectations;
  std::vector<MulticastPlanEntry> multicasts;
  std::vector<BufferPlan> buffers;

  /// Index of a phase name, -1 when absent.
  int phaseIndex(const std::string& phase) const;
  /// Index of a phase name, appending it when absent.
  int addPhase(const std::string& phase);
  /// Add a program-order edge (phases appended when absent).
  void addPhaseEdge(const std::string& from, const std::string& to);
};

/// The index of each write's multicast tree in `plan.multicasts`: the tree
/// declared under the write's pattern and source, otherwise the only tree
/// with that id; -1 for a unicast or a pattern no tree resolves.
std::vector<int> writeTrees(const CommPlan& plan);

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

/// Result of statically walking a multicast plan entry from its source.
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
  /// Entry-table nodes the walk never reaches (dead table rows).
  std::vector<int> unreachedEntries;
  /// Tree links the walk could not take because they are declared down;
  /// the subtree behind each is lost (degraded expansion only).
  std::vector<TorusLink> cutLinks;
};

/// Walk `entry` from its source as the hardware fans it out. Given down
/// links (degraded expansion), the walk stops at them, recording each cut
/// in `cutLinks`; destinations behind a cut drop out of `reached`.
TreeExpansion expandTree(const MulticastPlanEntry& entry,
                         const util::TorusShape& shape,
                         const std::vector<TorusLink>& downLinks = {});

}  // namespace anton::verify
