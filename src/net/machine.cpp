#include "net/machine.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <new>
#include <stdexcept>

#include "trace/activity.hpp"

namespace anton::net {

namespace {

// The six permutations of {x, y, z} used for adaptive dimension ordering.
constexpr std::array<std::array<int, 3>, 6> kDimPerms = {{
    {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}};

}  // namespace

HopDelays::HopDelays(const LatencyConfig& lat)
    : assembly(lat.assembly()),
      adapter(lat.adapter()),
      pollSuccess(lat.pollSuccess()),
      accumPoll(lat.accumPoll()),
      injectOccupancy(sim::ns(lat.injectOccupancyNs)) {
  auto onRing = [](int router) { return router >= 0 && router < kNumRouters; };
  if (!std::all_of(lat.ring.clientRouter.begin(), lat.ring.clientRouter.end(),
                   onRing) ||
      !std::all_of(lat.ring.adapterRouter.begin(),
                   lat.ring.adapterRouter.end(), onRing))
    throw std::invalid_argument("ring layout names a router off the ring");
  for (int d = 0; d < 3; ++d) {
    transit[std::size_t(d)] = lat.transit(d);
    wire[std::size_t(d)] = lat.wire(d);
  }
  for (int a = 0; a < kNumRouters; ++a)
    for (int b = 0; b < kNumRouters; ++b)
      ringPath[std::size_t(a)][std::size_t(b)] = lat.ringPath(a, b);
  for (std::size_t n = 0; n <= kMaxWireBytes; ++n) {
    linkSerialization[n] = lat.linkSerialization(n);
    ringOccupancy[n] = lat.ringOccupancy(n);
  }
}

Machine::ClientMemory::ClientMemory(std::size_t bytes) : size_(bytes) {
  if (bytes == 0) return;
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  base_ = static_cast<std::byte*>(p);
}

Machine::ClientMemory::~ClientMemory() {
  if (base_ != nullptr) munmap(base_, size_);
}

std::size_t Machine::clientMemoryBytes(const util::TorusShape& shape,
                                       const MachineConfig& cfg) {
  if (shape.nx < 1 || shape.ny < 1 || shape.nz < 1)
    throw std::invalid_argument("torus extents must be positive");
  const std::uint64_t nodes =
      std::uint64_t(shape.nx) * std::uint64_t(shape.ny) * std::uint64_t(shape.nz);
  if (nodes > std::uint64_t(std::numeric_limits<int>::max()))
    throw std::invalid_argument("torus has more nodes than an int can index");
  if (cfg.countersPerClient < 0)
    throw std::invalid_argument("countersPerClient must be non-negative");
  // Packet addresses are 32-bit byte offsets: memory past 4 GiB would be
  // unreachable by any packet.
  if (cfg.clientMemBytes > (std::uint64_t(1) << 32))
    throw std::invalid_argument(
        "clientMemBytes exceeds the 32-bit packet address range");
  const std::size_t clients = std::size_t(nodes) * kClientsPerNode;
  if (cfg.clientMemBytes != 0 &&
      clients > std::numeric_limits<std::size_t>::max() / cfg.clientMemBytes)
    throw std::invalid_argument("total client memory overflows size_t");
  return clients * cfg.clientMemBytes;
}

Machine::Machine(sim::Simulator& sim, util::TorusShape shape, MachineConfig cfg)
    : sim_(sim),
      shape_(shape),
      cfg_(cfg),
      delays_(cfg.latency),
      clientMem_(clientMemoryBytes(shape, cfg)) {
  const std::size_t nodeMem = cfg.clientMemBytes * kClientsPerNode;
  const std::size_t n = std::size_t(shape.size());
  nodes_.reserve(n);
  coords_.reserve(n);
  neighbors_.resize(n * 6);
  // Linear index order (x fastest); each neighbour is its coordinate
  // stepped with wrap-around, re-linearized.
  auto index = [&](int x, int y, int z) {
    return x + shape.nx * (y + shape.ny * z);
  };
  for (int z = 0; z < shape.nz; ++z) {
    const int zp = z + 1 == shape.nz ? 0 : z + 1;
    const int zm = z == 0 ? shape.nz - 1 : z - 1;
    for (int y = 0; y < shape.ny; ++y) {
      const int yp = y + 1 == shape.ny ? 0 : y + 1;
      const int ym = y == 0 ? shape.ny - 1 : y - 1;
      for (int x = 0; x < shape.nx; ++x) {
        const int xp = x + 1 == shape.nx ? 0 : x + 1;
        const int xm = x == 0 ? shape.nx - 1 : x - 1;
        const int i = int(coords_.size());
        coords_.push_back({x, y, z});
        int* nb = &neighbors_[std::size_t(i) * 6];
        // adapterIndex order: X+, X-, Y+, Y-, Z+, Z-.
        nb[0] = index(xp, y, z);
        nb[1] = index(xm, y, z);
        nb[2] = index(x, yp, z);
        nb[3] = index(x, ym, z);
        nb[4] = index(x, y, zp);
        nb[5] = index(x, y, zm);
        nodes_.push_back(std::make_unique<Node>(
            *this, i, coords_.back(),
            clientMem_.bytes().subspan(std::size_t(i) * nodeMem, nodeMem),
            cfg.countersPerClient));
      }
    }
  }
  links_.resize(n * 6);
  failedLinks_.assign(std::size_t(shape.size()) * 6, 0);
  saltByNode_.assign(std::size_t(shape.size()), 0);
}

void Machine::setTrace(trace::ActivityTrace* t) {
  trace_ = t;
  if (t == nullptr) return;
  static constexpr const char* kNames[6] = {"link.X+", "link.X-", "link.Y+",
                                            "link.Y-", "link.Z+", "link.Z-"};
  for (int a = 0; a < 6; ++a)
    traceLinkUnits_[std::size_t(a)] = t->unit(kNames[a]);
  traceKind_ = t->kind("xfer");
  traceRetxKind_ = t->kind("retx");
  traceOutageKind_ = t->kind("outage");
  traceRstallKind_ = t->kind("rstall");
  traceLinkFailKind_ = t->kind("linkfail");
  traceFaultUnit_ = t->unit("fault");
}

int Machine::hops(int fromNode, int toNode) const {
  return util::torusHops(coords_.at(std::size_t(fromNode)),
                         coords_.at(std::size_t(toNode)), shape_);
}

std::array<int, 3> Machine::dimOrder(const Packet& p) const {
  if (p.inOrder || !cfg_.adaptiveRouting) return kDimPerms[0];
  return kDimPerms[p.routeSalt % kDimPerms.size()];
}

void Machine::inject(const PacketPtr& p) {
  if (p->payloadBytes() > kMaxPayloadBytes)
    throw std::length_error("packet payload exceeds 256 bytes");
  if (p->multicastPattern != kNoMulticast &&
      (p->multicastPattern < 0 || p->multicastPattern >= kMulticastPatterns))
    throw std::out_of_range("bad multicast pattern id");
  auto isClient = [this](ClientAddr a) {
    return a.node >= 0 && a.node < numNodes() && a.client >= 0 &&
           a.client < kClientsPerNode;
  };
  if (!isClient(p->src))
    throw std::out_of_range("packet source is not a client of this machine");
  if (p->multicastPattern == kNoMulticast && !isClient(p->dst))
    throw std::out_of_range(
        "packet destination is not a client of this machine");
  p->wire = std::uint32_t(p->wireBytes());
  p->injectedAt = sim_.now();
  p->routeSalt = saltByNode_[std::size_t(p->src.node)]++;
  // Replays hand back the same Packet object (e.g. a registry-held pointer
  // re-injected directly): clear the tail lag the first transit left behind,
  // or a 0-hop replay would charge a wire serialization it never pays.
  p->tailLag = 0;
  ++stats_.packetsInjected;

  Node& src = *nodes_[std::size_t(p->src.node)];
  sim::Time t0 = sim_.now() + delays_.assembly;
  sim::Time start = src.reserveRing(t0, p->wire);
  int entryRouter = cfg_.latency.ring.clientRouter[std::size_t(p->src.client)];
  routeFrom(p, p->src.node, entryRouter, /*viaDim=*/-1, /*viaSign=*/0, start);
}

void Machine::routeFrom(const PacketPtr& p, int nodeIdx, int entryRouter,
                        int viaDim, int viaSign, sim::Time t) {
  if (fault_ != nullptr) {
    // Stalled on-chip router: everything entering this node's ring waits.
    sim::Time free = fault_->routerStallUntil(nodeIdx, t);
    if (free > t) {
      ++stats_.routerStalls;
      stats_.stallDelay += free - t;
      if (trace::ActivityTrace* tr = trace_)
        tr->record(traceFaultUnit_, traceRstallKind_, t, free);
      t = free;
    }
  }

  if (p->multicastPattern != kNoMulticast) {
    const MulticastEntry& e =
        nodes_[std::size_t(nodeIdx)]->multicast(p->multicastPattern);
    if (e.empty())
      throw std::logic_error("multicast packet hit an empty pattern entry");
    int branches = 0;
    for (int c = 0; c < kClientsPerNode; ++c) {
      if (e.clientMask & (1u << c)) {
        deliverLocal(p, nodeIdx, entryRouter, c, t);
        ++branches;
      }
    }
    for (int a = 0; a < 6; ++a) {
      if (e.linkMask & (1u << a)) {
        int dim = a / 2;
        int sign = (a % 2 == 0) ? +1 : -1;
        forwardOnLink(p, nodeIdx, entryRouter, viaDim == dim && viaSign == sign
                                                   ? viaDim
                                                   : -1,
                      dim, sign, t);
        ++branches;
      }
    }
    if (branches > 1) stats_.multicastForks += std::uint64_t(branches - 1);
    return;
  }

  // Unicast: dimension-ordered shortest-path routing. In degraded mode the
  // first dimension whose outgoing link is healthy wins; if every remaining
  // dimension's link is down the packet takes the preferred one and stalls
  // at its adapter until the outage window closes. Recovery replays
  // (degradedRoute) additionally avoid links that already dropped a packet
  // at cap exhaustion (sticky failed marks) — re-entering the link that ate
  // the original copy would likely lose the replay too.
  const util::TorusCoord& here = coords_[std::size_t(nodeIdx)];
  const util::TorusCoord& dest = coords_[std::size_t(p->dst.node)];
  int prefDim = -1, prefSign = 0;
  int useDim = -1, useSign = 0;
  for (int dim : dimOrder(*p)) {
    int delta = util::signedTorusDelta(here[dim], dest[dim], shape_.extent(dim));
    if (delta == 0) continue;
    int sign = delta > 0 ? +1 : -1;
    if (prefDim < 0) {
      prefDim = dim;
      prefSign = sign;
    }
    if ((cfg_.faultReroute || p->degradedRoute) && fault_ != nullptr &&
        fault_->linkDown(nodeIdx, dim, sign, t))
      continue;
    if (p->degradedRoute && linkMarkedFailed(nodeIdx, dim, sign)) continue;
    useDim = dim;
    useSign = sign;
    break;
  }
  if (prefDim < 0) {
    deliverLocal(p, nodeIdx, entryRouter, p->dst.client, t);
    return;
  }
  if (useDim < 0) {
    useDim = prefDim;
    useSign = prefSign;
  }
  if (useDim != prefDim || useSign != prefSign) ++stats_.faultReroutes;
  forwardOnLink(p, nodeIdx, entryRouter,
                (viaDim == useDim && viaSign == useSign) ? viaDim : -1, useDim,
                useSign, t);
}

void Machine::forwardOnLink(const PacketPtr& p, int nodeIdx, int entryRouter,
                            int straightViaDim, int dim, int sign, sim::Time t) {
  const HopDelays& d = delays_;
  const int adapterIdx = RingLayout::adapterIndex(dim, sign);
  int adapterRouter = cfg_.latency.ring.adapterRouter[std::size_t(adapterIdx)];

  // On-chip path to the exit adapter: through-traffic continuing in the same
  // dimension uses the calibrated transit cost; everything else crosses the
  // ring from its current position.
  sim::Time pathCost =
      straightViaDim == dim
          ? d.transit[std::size_t(dim)]
          : d.ringPath[std::size_t(entryRouter)][std::size_t(adapterRouter)];
  sim::Time atAdapter = t + pathCost + d.adapter;

  Link& l = link(nodeIdx, dim, sign);
  sim::Time depart = std::max(atAdapter, l.busyUntil);
  sim::Time ser = d.linkSerialization[p->wire];
  bool linkFailed = false;
  if (fault_ != nullptr) {
    LinkFaultOutcome out =
        fault_->onLinkTraversal(nodeIdx, dim, sign, p->wire, depart);
    if (out.stall > 0) {
      // Outage: the adapter holds the packet until the link comes back.
      ++stats_.outageStalls;
      stats_.stallDelay += out.stall;
      if (trace::ActivityTrace* tr = trace_)
        tr->record(traceLinkUnits_[std::size_t(adapterIdx)],
                   traceOutageKind_, depart, depart + out.stall);
      depart += out.stall;
    }
    if (out.retransmits > 0) {
      // Link-level retransmission: each CRC-detected corrupt copy occupies
      // the link for its serialization plus the calibrated replay turnaround.
      sim::Time penalty =
          sim::Time(out.retransmits) * (ser + cfg_.latency.retransmitPenalty());
      stats_.crcRetransmits += std::uint64_t(out.retransmits);
      stats_.retransmitDelay += penalty;
      if (trace::ActivityTrace* tr = trace_)
        tr->record(traceLinkUnits_[std::size_t(adapterIdx)],
                   traceRetxKind_, depart, depart + penalty);
      depart += penalty;
    }
    linkFailed = out.linkFailed;
  }
  l.busyUntil = depart + ser;
  ++l.traversals;
  ++stats_.linkTraversals;
  stats_.wireBytes += p->wire;
  if (trace::ActivityTrace* tr = trace_) {
    tr->record(traceLinkUnits_[std::size_t(adapterIdx)],
               linkFailed ? traceLinkFailKind_ : traceKind_, depart,
               depart + std::max<sim::Time>(ser, 1));
  }

  if (linkFailed) {
    // The link layer exhausted its retransmit budget: the final copy also
    // arrived corrupt, so the hardware drops this replica. The wire time was
    // spent (busy window, traversal, byte accounting above) but nothing is
    // scheduled beyond the link — loss is now a software-visible condition.
    // The link keeps a sticky failed mark so recovery replays route around it.
    ++stats_.linkFailures;
    failedLinks_[std::size_t(nodeIdx) * 6 + std::size_t(adapterIdx)] = 1;
    if (dropHandler_) {
      if (p->multicastPattern == kNoMulticast)
        dropHandler_(p, {p->dst});
      else
        dropHandler_(p, multicastReceivers(p->multicastPattern,
                                           neighbor(nodeIdx, adapterIdx)));
    }
    return;
  }

  // Wormhole switching: the head proceeds after the wire delay; the tail
  // lags by the payload serialization of the slowest (inter-node) link,
  // charged once.
  if (p->tailLag == 0 && p->wire > kHeaderBytes)
    p->tailLag = d.linkSerialization[p->wire - kHeaderBytes];

  sim::Time headArrive = depart + d.wire[std::size_t(dim)];
  sim::Time atRing = headArrive + d.adapter;
  // Reserve the arrival's event sequence number here, at the traversal, not
  // when a drain is armed for it: the reserved seq fixes the arrival's place
  // in the kernel's (time, seq) order, so the schedule is the same however
  // many arrivals queue on the link. The arrival parks on the link's pending
  // queue; at most one drain event sits in the kernel per link regardless of
  // how many packets are in flight on it.
  l.pending.push({p, atRing, sim_.reserveSeq()});
  if (!l.drainScheduled)
    scheduleDrain(std::size_t(nodeIdx) * 6 + std::size_t(adapterIdx));
}

void Machine::scheduleDrain(std::size_t li) {
  Link& l = links_[li];
  const Arrival& head = l.pending.front();
  l.drainScheduled = true;
  sim_.atReserved(head.atRing, head.seq, [this, li] { drainLink(li); });
}

void Machine::drainLink(std::size_t li) {
  Link& l = links_[li];
  const int nodeIdx = int(li / 6);
  const int a = int(li % 6);
  const int dim = a / 2;
  const int sign = (a % 2 == 0) ? +1 : -1;
  const int entryAdapterRouter = cfg_.latency.ring.adapterRouter[std::size_t(
      RingLayout::adapterIndex(dim, -sign))];
  const int nextIdx = neighbor(nodeIdx, a);

  // Route exactly the head arrival, then re-arm for the next one at its own
  // reserved (time, seq) slot. Per-link head-arrival times are strictly
  // monotonic (busyUntil advances by at least one serialization per
  // traversal), so there is never a second same-time arrival to fold in —
  // and unrelated events interleave between two arrivals by their own
  // (time, seq) slots, exactly as if each arrival were its own event.
  // drainScheduled stays true across routeFrom so a multicast loop that
  // lands back on this link cannot double-schedule; the tail re-arm below
  // picks any such appendee up.
  Arrival head = l.pending.pop();
  routeFrom(head.p, nextIdx, entryAdapterRouter, dim, sign, head.atRing);

  if (l.pending.empty())
    l.drainScheduled = false;
  else
    scheduleDrain(li);
}

const std::vector<ClientAddr>& Machine::multicastReceivers(
    int pattern, int nodeIdx) const {
  // Walk the static fan-out tree exactly as routeFrom would have: clientMask
  // bits are deliveries at this node, linkMask bits continue the walk. The
  // visited guard makes a (malformed) cyclic pattern terminate.
  walkReached_.clear();
  walkVisited_.assign(std::size_t(shape_.size()), 0);
  walkStack_.assign(1, nodeIdx);
  while (!walkStack_.empty()) {
    int idx = walkStack_.back();
    walkStack_.pop_back();
    if (walkVisited_[std::size_t(idx)]) continue;
    walkVisited_[std::size_t(idx)] = 1;
    const MulticastEntry& e = nodes_[std::size_t(idx)]->multicast(pattern);
    for (int c = 0; c < kClientsPerNode; ++c)
      if (e.clientMask & (1u << c)) walkReached_.push_back({idx, c});
    for (int a = 0; a < 6; ++a)
      if (e.linkMask & (1u << a)) walkStack_.push_back(neighbor(idx, a));
  }
  return walkReached_;
}

void Machine::deliverLocal(const PacketPtr& p, int nodeIdx, int entryRouter,
                           int clientId, sim::Time t) {
  int clientRouter = cfg_.latency.ring.clientRouter[std::size_t(clientId)];
  sim::Time tPath =
      t + delays_.ringPath[std::size_t(entryRouter)][std::size_t(clientRouter)];
  Node& node = *nodes_[std::size_t(nodeIdx)];
  sim::Time start = node.reserveRing(tPath, p->wire);
  sim::Time commit = start + p->tailLag;
  sim_.at(commit, [this, p, dst = &node.client(clientId)] {
    dst->deliver(p);
    ++stats_.packetsDelivered;
  });
}

}  // namespace anton::net
