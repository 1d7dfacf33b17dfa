// The Anton machine model: a 3D torus of nodes with dimension-ordered
// shortest-path routing, lossless links with per-direction bandwidth
// occupancy (wormhole switching), hardware multicast, and counted-write
// delivery semantics. Latencies follow the calibrated LatencyConfig; see
// DESIGN.md §4 for the calibration against SC10 Figs. 5/6.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/fault_hooks.hpp"
#include "net/latency.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/torus_coord.hpp"

#include "trace/activity.hpp"

namespace anton::net {

/// Structural configuration of a machine instance.
struct MachineConfig {
  LatencyConfig latency;
  std::size_t clientMemBytes = 256 << 10;  ///< local memory per client (at
                                           ///< most 4 GiB: packet addresses
                                           ///< are 32-bit)
  int countersPerClient = 256;           ///< sync counters per client
  bool adaptiveRouting = true;  ///< permute dimension order for packets
                                ///< without the in-order flag
  bool faultReroute = false;  ///< degraded mode: route around links that the
                              ///< installed fault model reports as down, via
                              ///< a non-preferred dimension order
};

/// Integer-picosecond delays of the hop path, tabulated once per Machine
/// by calling the very LatencyConfig functions the hop path used to call
/// per packet, so every entry is bit-identical to them: forwarding and
/// delivery never round a double.
struct HopDelays {
  static constexpr std::size_t kMaxWireBytes = kHeaderBytes + kMaxPayloadBytes;
  sim::Time assembly = 0;
  sim::Time adapter = 0;
  sim::Time pollSuccess = 0;
  sim::Time accumPoll = 0;
  sim::Time injectOccupancy = 0;
  std::array<sim::Time, 3> transit{};  ///< per dimension
  std::array<sim::Time, 3> wire{};     ///< per dimension
  /// ringPath[from][to] between router slots.
  std::array<std::array<sim::Time, kNumRouters>, kNumRouters> ringPath{};
  /// Indexed by byte count, 0 .. kMaxWireBytes.
  std::array<sim::Time, kMaxWireBytes + 1> linkSerialization{};
  std::array<sim::Time, kMaxWireBytes + 1> ringOccupancy{};

  explicit HopDelays(const LatencyConfig& lat);
};

/// Aggregate traffic statistics. The reliability counters stay exactly zero
/// on a fault-free run (including under an installed zero-fault plan).
struct MachineStats {
  std::uint64_t packetsInjected = 0;
  std::uint64_t packetsDelivered = 0;
  std::uint64_t linkTraversals = 0;
  std::uint64_t wireBytes = 0;       ///< bytes crossing inter-node links
  std::uint64_t multicastForks = 0;  ///< replicas created by multicast fan-out
  std::uint64_t crcRetransmits = 0;  ///< corrupt link transmissions replayed
  std::uint64_t linkFailures = 0;    ///< traversals that exhausted the
                                     ///< retransmit cap; the packet replica
                                     ///< was dropped (erased) on that link
  std::uint64_t outageStalls = 0;    ///< traversals held by a link outage
  std::uint64_t routerStalls = 0;    ///< node visits delayed by a stalled ring
  std::uint64_t faultReroutes = 0;   ///< packets sent via a non-preferred dim
  sim::Time retransmitDelay = 0;     ///< latency inflation from CRC replays
  sim::Time stallDelay = 0;          ///< total outage + router-stall wait
  friend bool operator==(const MachineStats&, const MachineStats&) = default;
};

class Machine {
 public:
  /// Throws std::invalid_argument, before any memory is mapped, for a
  /// ring layout that places a client or adapter off the six routers, a
  /// non-positive extent, more nodes than an int indexes, a negative
  /// counter count, a clientMemBytes beyond the 32-bit packet address
  /// range, or a total client memory that overflows size_t.
  Machine(sim::Simulator& sim, util::TorusShape shape, MachineConfig cfg = {});

  sim::Simulator& sim() { return sim_; }
  const util::TorusShape& shape() const { return shape_; }
  const LatencyConfig& latency() const { return cfg_.latency; }
  /// latency(), tabulated in integer picoseconds.
  const HopDelays& delays() const { return delays_; }
  const MachineConfig& config() const { return cfg_; }
  int numNodes() const { return shape_.size(); }

  Node& node(int idx) { return *nodes_.at(std::size_t(idx)); }
  Node& node(const util::TorusCoord& c) { return node(util::torusIndex(c, shape_)); }
  NetworkClient& client(ClientAddr a) { return node(a.node).client(a.client); }
  ProcessingSlice& slice(int nodeIdx, int s) { return node(nodeIdx).slice(s); }
  Htis& htis(int nodeIdx) { return node(nodeIdx).htis(); }
  AccumulationMemory& accum(int nodeIdx, int which) {
    return node(nodeIdx).accum(which);
  }

  /// Install a multicast fan-out entry at one node.
  void setMulticastPattern(int nodeIdx, int pattern, MulticastEntry e) {
    node(nodeIdx).setMulticast(pattern, e);
  }

  /// Inject a packet from p->src at the current simulated time. The pipeline
  /// (assembly, on-chip ring, adapters, links) is scheduled as events; the
  /// payload commits and the destination counter bumps at delivery time.
  /// Throws std::out_of_range, before any machine state changes, when the
  /// source — or a unicast destination — is not a client of this machine.
  void inject(const PacketPtr& p);

  const MachineStats& stats() const { return stats_; }
  void resetStats() { stats_ = {}; }

  /// Traversal count of the outgoing link of `nodeIdx` in (dim, sign).
  std::uint64_t linkTraversals(int nodeIdx, int dim, int sign) const {
    return links_[std::size_t(nodeIdx) * 6 +
                  std::size_t(RingLayout::adapterIndex(dim, sign))]
        .traversals;
  }

  /// Shortest-path hop count between two nodes (all dimensions).
  int hops(int fromNode, int toNode) const;

  /// Attach an activity trace: every link traversal records its busy window
  /// on a per-direction "link.X+/X-/.../Z-" unit (aggregated machine-wide,
  /// like the columns of SC10 Fig. 13). Pass nullptr to detach.
  void setTrace(trace::ActivityTrace* t);
  /// The attached activity trace, or nullptr.
  trace::ActivityTrace* trace() const { return trace_; }

  /// Install a fault model (e.g. fault::FaultPlan), consulted on every link
  /// traversal, dimension choice, and node-ring entry. Pass nullptr to
  /// detach. A model that reports no faults leaves all timing bit-identical
  /// to the fault-free machine.
  void setFaultModel(FaultModel* f) { fault_ = f; }

  /// Whether the outgoing link of `nodeIdx` in (dim, sign) has dropped a
  /// packet at retransmit-cap exhaustion. The mark is sticky: recovery
  /// replays (Packet::degradedRoute) route around marked links instead of
  /// re-entering the one that ate the original copy. Stays all-false on a
  /// fault-free run.
  bool linkMarkedFailed(int nodeIdx, int dim, int sign) const {
    return failedLinks_[std::size_t(nodeIdx) * 6 +
                        std::size_t(RingLayout::adapterIndex(dim, sign))] != 0;
  }

  /// Observer of link-failed packet drops: called once per dropped replica
  /// with the packet and the set of destination clients the replica would
  /// still have reached (for multicast, the subtree beyond the failed link).
  /// The software recovery layer (core::DropRegistry) uses this as its
  /// replay buffer feed. Pass nullptr to detach.
  using DropHandler =
      std::function<void(const PacketPtr&, const std::vector<ClientAddr>&)>;
  void setDropHandler(DropHandler h) { dropHandler_ = std::move(h); }

  /// Destination clients a multicast of `pattern` entering `nodeIdx`
  /// reaches: the subtree of the installed tables rooted there, walked as
  /// the router forwards it. The result is a scratch buffer, valid until the
  /// next call; the walk allocates nothing once it is warm.
  const std::vector<ClientAddr>& multicastReceivers(int pattern,
                                                    int nodeIdx) const;

 private:
  friend class NetworkClient;

  /// One packet parked on a link, waiting for its head to reach the far
  /// ring. `seq` was reserved at forwarding time, so the drain routes the
  /// arrival at the (time, seq) slot its traversal fixed.
  struct Arrival {
    PacketPtr p;
    sim::Time atRing;
    std::uint64_t seq;
  };

  /// One cache line per link: a traversal touches every field.
  struct alignas(64) Link {
    sim::Time busyUntil = 0;
    std::uint64_t traversals = 0;
    // Batched drain state: arrivals are appended in (monotonic) time order
    // and consumed front-to-back; at most one drain event is in the kernel
    // per link, however many packets are in flight on it. Steady-state
    // traffic never reallocates the queue.
    RecyclingQueue<Arrival> pending;
    bool drainScheduled = false;
  };
  Link& link(int nodeIdx, int dim, int sign) {
    return links_[std::size_t(nodeIdx) * 6 +
                  std::size_t(RingLayout::adapterIndex(dim, sign))];
  }

  /// Schedule (or re-arm) the single drain event of link `li` for the
  /// front of its pending queue.
  void scheduleDrain(std::size_t li);
  /// Route every pending arrival of link `li` whose time is now; re-arm
  /// for the next one.
  void drainLink(std::size_t li);

  /// Route a packet onward from a node. `entryRouter` is where the packet
  /// sits on the on-chip ring; `viaDim/viaSign` describe the link it arrived
  /// on (-1 for freshly injected packets).
  void routeFrom(const PacketPtr& p, int nodeIdx, int entryRouter, int viaDim,
                 int viaSign, sim::Time t);

  /// Send a packet out of nodeIdx on (dim, sign). `entryRouter` is its ring
  /// position; `straightThrough` selects the calibrated transit cost instead
  /// of the generic ring path.
  void forwardOnLink(const PacketPtr& p, int nodeIdx, int entryRouter,
                     int viaDim, int dim, int sign, sim::Time t);

  /// Commit delivery to a local client after the final on-chip segment.
  void deliverLocal(const PacketPtr& p, int nodeIdx, int entryRouter,
                    int clientId, sim::Time t);

  /// Dimension traversal order for this packet (identity when in-order or
  /// adaptive routing is disabled; a salt-derived permutation otherwise).
  std::array<int, 3> dimOrder(const Packet& p) const;

  /// Every client's local memory: one anonymous private mapping, reserved
  /// but not committed (MAP_NORESERVE). The kernel supplies a zero page on
  /// a page's first touch, and munmap frees only the pages a run touched,
  /// so building and destroying a machine costs O(touched memory).
  class ClientMemory {
   public:
    explicit ClientMemory(std::size_t bytes);
    ~ClientMemory();
    ClientMemory(const ClientMemory&) = delete;
    ClientMemory& operator=(const ClientMemory&) = delete;
    std::span<std::byte> bytes() const { return {base_, size_}; }

   private:
    std::byte* base_ = nullptr;
    std::size_t size_ = 0;
  };

  /// Validate the shape and sizes; returns the client-memory mapping size.
  static std::size_t clientMemoryBytes(const util::TorusShape& shape,
                                       const MachineConfig& cfg);

  /// Outgoing-link neighbour of `nodeIdx` through adapter `a`.
  int neighbor(int nodeIdx, int a) const {
    return neighbors_[std::size_t(nodeIdx) * 6 + std::size_t(a)];
  }

  sim::Simulator& sim_;
  util::TorusShape shape_;
  MachineConfig cfg_;
  HopDelays delays_;
  ClientMemory clientMem_;  ///< before nodes_: unmapped after the clients die
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Every node's coordinate and its six link neighbours (node * 6 +
  /// adapter index), laid out at build without a division.
  std::vector<util::TorusCoord> coords_;
  std::vector<int> neighbors_;
  std::vector<Link> links_;
  /// Sticky per-link failed marks (node * 6 + adapter), set when a traversal
  /// exhausts the retransmit cap and drops its packet.
  std::vector<char> failedLinks_;
  MachineStats stats_;
  /// Per-source-node route-salt counters. A per-node counter is independent
  /// of the global injection interleaving (a process-wide counter would make
  /// the salt — and adaptive dimension orders — depend on event execution
  /// order across nodes), and it is part of the pinned schedule.
  std::vector<std::uint64_t> saltByNode_;
  trace::ActivityTrace* trace_ = nullptr;
  std::array<int, 6> traceLinkUnits_{};
  int traceKind_ = 0;
  int traceRetxKind_ = 0;
  int traceOutageKind_ = 0;
  int traceRstallKind_ = 0;
  int traceLinkFailKind_ = 0;
  int traceFaultUnit_ = 0;
  FaultModel* fault_ = nullptr;
  DropHandler dropHandler_;
  /// multicastReceivers' scratch: its result, stack and visited marks.
  mutable std::vector<ClientAddr> walkReached_;
  mutable std::vector<int> walkStack_;
  mutable std::vector<char> walkVisited_;
};

}  // namespace anton::net
