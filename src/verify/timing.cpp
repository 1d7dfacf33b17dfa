#include "verify/timing.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "net/packet.hpp"
#include "verify/events.hpp"

namespace anton::verify {
namespace {

constexpr double kEps = 1e-9;

using Link = TorusLink;

std::string linkLabel(const Link& l) {
  return "node " + std::to_string(l.node) + " " +
         std::string(1, "xyz"[std::size_t(l.dim)]) + (l.sign > 0 ? "+" : "-");
}

std::string ns1(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Direction of the hop a -> b along `dim` (extent-2 dimensions pick +).
int hopSign(int a, int b, int dim, const util::TorusShape& shape) {
  util::TorusCoord ca = util::torusCoordOf(a, shape);
  return util::torusIndex(util::torusNeighbor(ca, dim, +1, shape), shape) == b
             ? +1
             : -1;
}

/// Routed delivery of one write: the per-destination link paths and the set
/// of links the traffic occupies (each multicast tree link carries every
/// packet exactly once, independent of the fan-out size behind it).
struct WriteRoute {
  std::map<int, std::vector<Link>> pathTo;  ///< dst node -> links from src
  std::vector<Link> occupied;               ///< distinct links traversed
  bool stalled = false;                     ///< some destination unreachable
  std::string stallDetail;
};

/// The route of a multicast tree, read from its walk: each node's path is
/// its parent's plus the link it was entered by.
WriteRoute treeRoute(const TreeExpansion& x) {
  WriteRoute out;
  for (std::size_t i = 0; i < x.visited.size(); ++i) {
    const Link& in = x.enteredBy[i];
    std::vector<Link> path;
    if (in.node >= 0) {
      path = out.pathTo.at(in.node);
      path.push_back(in);
      out.occupied.push_back(in);
    }
    out.pathTo.emplace(x.visited[i], std::move(path));
  }
  std::sort(out.occupied.begin(), out.occupied.end());
  return out;
}

/// Route every write of the plan, healthy or under the declared down links
/// (unicast reroutes via the first-healthy-dimension trace, multicast via
/// the repaired tree — the same policies the live machine and the recovery
/// replays use).
std::vector<WriteRoute> routeWrites(const CommPlan& plan,
                                    const Delivered& delivered,
                                    const std::vector<TorusLink>& downLinks) {
  std::vector<WriteRoute> routes(plan.writes.size());
  std::map<int, WriteRoute> treeCache;
  for (std::size_t wi = 0; wi < plan.writes.size(); ++wi) {
    const PlannedWrite& w = plan.writes[wi];
    WriteRoute& r = routes[wi];
    if (w.pattern == net::kNoMulticast) {
      std::set<int> dstNodes;
      for (const net::ClientAddr& d : delivered.of(wi)) dstNodes.insert(d.node);
      std::set<Link> occupied;
      for (int dst : dstNodes) {
        if (dst == w.srcNode) {
          r.pathTo.emplace(dst, std::vector<Link>{});
          continue;
        }
        RouteTrace tr =
            traceUnicastRoute(w.srcNode, dst, plan.shape, downLinks);
        if (tr.stalled) {
          r.stalled = true;
          r.stallDetail = "no route node " + std::to_string(w.srcNode) +
                          " -> node " + std::to_string(dst);
          continue;
        }
        std::vector<Link> path;
        for (std::size_t h = 0; h + 1 < tr.nodes.size(); ++h) {
          int dim = tr.dims[h];
          path.push_back({tr.nodes[h], dim,
                          hopSign(tr.nodes[h], tr.nodes[h + 1], dim,
                                  plan.shape)});
          occupied.insert(path.back());
        }
        r.pathTo.emplace(dst, std::move(path));
      }
      r.occupied.assign(occupied.begin(), occupied.end());
      continue;
    }

    const int treeIndex = delivered.tree[wi];
    if (treeIndex < 0) continue;
    auto [ci, fresh] = treeCache.try_emplace(treeIndex);
    if (fresh) {
      const TreeView tree = plan.tree(plan.multicasts[std::size_t(treeIndex)]);
      if (downLinks.empty()) {
        ci->second = treeRoute(expandTree(tree, plan.shape));
      } else {
        TreeRepair rep = repairMulticastTree(tree, plan.shape, downLinks);
        ci->second = treeRoute(
            expandTree(rep.repaired(tree), plan.shape, downLinks));
        if (!rep.ok()) {
          ci->second.stalled = true;
          ci->second.stallDetail =
              "pattern " + std::to_string(tree.patternId) +
              " fan-out cannot reach " +
              std::to_string(rep.stalledDests.size()) +
              " destination(s) under the declared down links";
        }
      }
    }
    r = ci->second;
    // A delivered destination the (repaired) walk never reached stalls the
    // write even when the repair pass itself reported success.
    for (const net::ClientAddr& d : delivered.of(wi))
      if (!r.pathTo.count(d.node) && !r.stalled) {
        r.stalled = true;
        r.stallDetail = "tree from node " + std::to_string(w.srcNode) +
                        " never reaches node " + std::to_string(d.node);
      }
  }
  return routes;
}

/// Head latency of a routed path, hop by hop. Dimension-ordered minimal
/// routing traverses each dimension contiguously, so every hop after the
/// first of its segment continues straight through (same dim and sign) and
/// pays the calibrated transit aggregate — 76 ns/hop X, 54 ns/hop Y/Z at
/// defaults, the published per-hop numbers — while each segment-start hop
/// crosses the on-chip ring to a different adapter. The per-dimension
/// interior/start hop split is invariant under the adaptive-routing
/// dimension permutations (each priced dimension keeps |delta|-1 interior
/// hops and one start), so pricing the traced route is sound for salted
/// packets too; only the turn costs vary, and those are priced exactly when
/// the route is deterministic (`exactTurns`: in-order packets and multicast
/// forwarding tables) and at the ring minimum otherwise.
double routeCrossingNs(const std::vector<Link>& path, bool exactTurns,
                       const net::LatencyConfig& lat) {
  double ns = 0.0;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const Link& h = path[i];
    double onChip;
    if (i > 0 && path[i - 1].dim == h.dim && path[i - 1].sign == h.sign) {
      onChip = lat.transitNs[std::size_t(h.dim)];
    } else if (i == 0 || !exactTurns) {
      // Injection enters at the (unmodeled) source client's router; salted
      // routes turn between permutation-dependent adapters. Both pay at
      // least the minimal ring crossing.
      onChip = lat.minRingPathNs();
    } else {
      // Turning traffic arrives on the opposite adapter of the previous
      // hop's dimension and crosses the ring to the exit adapter — exactly
      // Machine::forwardOnLink's path cost.
      int from = lat.ring.adapterRouter[std::size_t(
          net::RingLayout::adapterIndex(path[i - 1].dim, -path[i - 1].sign))];
      int to = lat.ring.adapterRouter[std::size_t(
          net::RingLayout::adapterIndex(h.dim, h.sign))];
      onChip = lat.ringPathNs(from, to);
    }
    ns += onChip + 2.0 * lat.adapterNs + lat.wireNs[std::size_t(h.dim)];
  }
  return ns;
}

/// Result of one longest-path relaxation over the unrolled event graph.
struct BoundResult {
  std::vector<double> dist;
  std::vector<int> pred;
  double maxNs = 0.0;
  int argmax = -1;
  bool cyclic = false;
};

BoundResult longestPath(
    const EventGraph& graph,
    const std::unordered_map<std::uint64_t, double>& slotWeight) {
  const int V = graph.numVertices();
  BoundResult r;
  r.dist.assign(std::size_t(V), 0.0);
  r.pred.assign(std::size_t(V), -1);

  auto weightOf = [&](int u, int v) {
    auto it = slotWeight.find((std::uint64_t(std::uint32_t(graph.slotOf(u)))
                               << 32) |
                              std::uint32_t(graph.slotOf(v)));
    return it == slotWeight.end() ? 0.0 : it->second;
  };

  std::vector<int> indeg(std::size_t(V), 0);
  for (int u = 0; u < V; ++u)
    for (const int* pv = graph.succBegin(u); pv != graph.succEnd(u); ++pv)
      ++indeg[std::size_t(*pv)];
  std::deque<int> q;
  for (int v = 0; v < V; ++v)
    if (indeg[std::size_t(v)] == 0) q.push_back(v);
  int processed = 0;
  while (!q.empty()) {
    int u = q.front();
    q.pop_front();
    ++processed;
    for (const int* pv = graph.succBegin(u); pv != graph.succEnd(u); ++pv) {
      int v = *pv;
      double cand = r.dist[std::size_t(u)] + weightOf(u, v);
      if (cand > r.dist[std::size_t(v)] + kEps) {
        r.dist[std::size_t(v)] = cand;
        r.pred[std::size_t(v)] = u;
      }
      if (--indeg[std::size_t(v)] == 0) q.push_back(v);
    }
  }
  if (processed != V) {
    r.cyclic = true;
    return r;
  }
  for (int v = 0; v < V; ++v)
    if (r.dist[std::size_t(v)] > r.maxNs) {
      r.maxNs = r.dist[std::size_t(v)];
      r.argmax = v;
    }
  return r;
}

/// Delivery-edge weights keyed by (send slot << 32 | wait slot): the static
/// minimum between issuing the counted write and completing the wait it
/// satisfies. Every other happens-before edge is free (conservative).
struct PricedPlan {
  std::unordered_map<std::uint64_t, double> slotWeight;
  bool stalled = false;
  std::string stallDetail;
};

PricedPlan priceDeliveries(const CommPlan& plan, const EventGraph& graph,
                           const Delivered& delivered,
                           const std::vector<WriteRoute>& routes,
                           const net::LatencyConfig& lat) {
  PricedPlan out;
  for (std::size_t wi = 0; wi < plan.writes.size(); ++wi) {
    const PlannedWrite& w = plan.writes[wi];
    int sendSlot = graph.sendSlot(wi);
    if (sendSlot < 0 || w.counterId == net::kNoCounter) continue;
    std::size_t wire = plannedWireBytes(w);
    for (const net::ClientAddr& d : delivered.of(wi)) {
      const std::span<const int> waits = graph.waitsOn(d, w.counterId);
      if (waits.empty()) continue;
      auto path = routes[wi].pathTo.find(d.node);
      if (path == routes[wi].pathTo.end()) continue;  // stalled: see below
      double routeNs = routeCrossingNs(
          path->second, w.pattern != net::kNoMulticast || w.inOrder, lat);
      double spacing = lat.minPacketSpacingNs(wire, !path->second.empty());
      // Wormhole switching: the head proceeds after the wire delay and the
      // tail lags by the payload serialization, charged once (the live
      // machine's tailLag). Header-only packets have no tail.
      double tailNs = !path->second.empty() && wire > net::kHeaderBytes
                          ? lat.linkSerializationNs(wire - net::kHeaderBytes)
                          : 0.0;
      double edge = lat.assemblyNs + double(w.packets - 1) * spacing +
                    routeNs + tailNs + lat.minDeliveryNs();
      for (int ei : waits) {
        std::uint64_t key =
            (std::uint64_t(std::uint32_t(sendSlot)) << 32) |
            std::uint32_t(graph.waitSlot(std::size_t(ei)));
        auto [wit, fresh] = out.slotWeight.try_emplace(key, edge);
        if (!fresh) wit->second = std::max(wit->second, edge);
      }
    }
    if (routes[wi].stalled && !out.stalled) {
      out.stalled = true;
      out.stallDetail = routes[wi].stallDetail + " (write in phase '" +
                        plan.phaseName(w.phase) + "', ctr " +
                        std::to_string(w.counterId) + ")";
    }
  }
  return out;
}

}  // namespace

std::size_t plannedWireBytes(const PlannedWrite& w) {
  return net::kHeaderBytes +
         (w.bytes <= net::kImmediateBytes ? 0 : std::size_t(w.bytes));
}

TimingReport analyzeTiming(const CommPlan& plan, const TimingOptions& opts,
                           const net::LatencyConfig& lat) {
  TimingReport rep;
  rep.plan = plan.name;
  rep.rounds = std::max(opts.rounds, 1);

  const Delivered delivered = deliveredTargets(plan);
  EventGraph graph(plan, rep.rounds, delivered);
  rep.eventsModeled = graph.numVertices();

  auto addViolation = [&rep](const std::string& check, const std::string& site,
                             const std::string& detail, int node) {
    Violation v;
    v.check = check;
    v.severity = Severity::kError;
    v.site = site;
    v.detail = detail;
    v.node = node;
    rep.violations.push_back(std::move(v));
  };

  if (!graph.findCycle().empty()) {
    // No finite bound exists; the cycle itself is event.deadlock's finding.
    addViolation("timing.cycle", plan.name,
                 "happens-before event graph is cyclic: no finite latency "
                 "bound exists (see event.deadlock for the cycle)",
                 -1);
    return rep;
  }

  // --- healthy pricing and critical path ----------------------------------
  std::vector<WriteRoute> routes = routeWrites(plan, delivered, {});
  PricedPlan priced = priceDeliveries(plan, graph, delivered, routes, lat);
  BoundResult healthy = longestPath(graph, priced.slotWeight);
  rep.criticalPathNs = healthy.maxNs;

  if (rep.rounds > 1) {
    EventGraph prev(plan, rep.rounds - 1, delivered);
    BoundResult prevBound = longestPath(prev, priced.slotWeight);
    rep.perRoundNs = healthy.maxNs - prevBound.maxNs;
  } else {
    rep.perRoundNs = healthy.maxNs;
  }

  // Bottleneck path, earliest event first.
  if (healthy.argmax >= 0) {
    std::vector<int> chain;
    for (int v = healthy.argmax; v >= 0; v = healthy.pred[std::size_t(v)])
      chain.push_back(v);
    std::reverse(chain.begin(), chain.end());
    std::size_t keep = std::min(chain.size(), std::size_t(opts.maxPathEvents));
    std::size_t first = chain.size() - keep;  // keep the completion tail
    for (std::size_t i = first; i < chain.size(); ++i) {
      PathStep step;
      step.event = graph.describe(chain[i]);
      step.arrivalNs = healthy.dist[std::size_t(chain[i])];
      step.edgeNs =
          i == 0 ? step.arrivalNs
                 : step.arrivalNs - healthy.dist[std::size_t(chain[i - 1])];
      rep.bottleneckPath.push_back(std::move(step));
    }
  }

  // --- per-link x per-phase occupancy and contention ------------------------
  struct Cell {
    std::uint64_t packets = 0;
    double occupancyNs = 0.0;
    double consumerNs = 0.0;  ///< latest consuming-wait completion (round 0)
  };
  std::map<std::pair<Link, int>, Cell> cells;
  std::map<Link, double> linkDemand;
  // Consumer completion per write: the latest delivery-target wait label of
  // a round-0 send (next-round waits land in round 1 and still count).
  std::vector<double> writeConsumerNs(plan.writes.size(), 0.0);
  for (std::size_t wi = 0; wi < plan.writes.size(); ++wi) {
    const PlannedWrite& w = plan.writes[wi];
    int sendSlot = graph.sendSlot(wi);
    if (sendSlot < 0 || w.counterId == net::kNoCounter) continue;
    int u0 = graph.vertex(sendSlot, 0);
    for (const int* pv = graph.succBegin(u0); pv != graph.succEnd(u0); ++pv) {
      const Event& ev = graph.event(graph.slotOf(*pv));
      if (ev.kind != EventKind::kWait) continue;
      std::uint64_t key = (std::uint64_t(std::uint32_t(sendSlot)) << 32) |
                          std::uint32_t(graph.slotOf(*pv));
      if (!priced.slotWeight.count(key)) continue;
      writeConsumerNs[wi] =
          std::max(writeConsumerNs[wi], healthy.dist[std::size_t(*pv)]);
    }
  }
  for (std::size_t wi = 0; wi < plan.writes.size(); ++wi) {
    const PlannedWrite& w = plan.writes[wi];
    if (graph.sendSlot(wi) < 0) continue;
    const int phase = w.phase;
    double serNs = lat.linkSerializationNs(plannedWireBytes(w));
    for (const Link& l : routes[wi].occupied) {
      Cell& c = cells[{l, phase}];
      c.packets += w.packets;
      c.occupancyNs += double(w.packets) * serNs;
      c.consumerNs = std::max(c.consumerNs, writeConsumerNs[wi]);
      linkDemand[l] += double(w.packets) * serNs;
    }
  }
  rep.linksUsed = int(linkDemand.size());
  for (const auto& [l, demand] : linkDemand)
    rep.maxLinkDemandNs = std::max(rep.maxLinkDemandNs, demand);

  std::vector<LinkLoad> loads;
  for (const auto& [key, c] : cells) {
    const auto& [l, phase] = key;
    LinkLoad load;
    load.node = l.node;
    load.dim = l.dim;
    load.sign = l.sign;
    load.phase = plan.phaseName(std::size_t(phase));
    load.packets = c.packets;
    load.occupancyNs = c.occupancyNs;
    // The serialization window: from the earliest the phase can start
    // (entry anchor, round 0) to the latest completion of a wait consuming
    // this traffic. Cells with no counted consumer (pure FIFO lanes) have
    // no static completion event and report no utilization.
    double start = std::numeric_limits<double>::infinity();
    if (phase >= 0)
      for (int n = 0; n < plan.shape.size(); ++n) {
        int slot = graph.entrySlot(n, phase);
        if (slot >= 0)
          start = std::min(start,
                           healthy.dist[std::size_t(graph.vertex(slot, 0))]);
      }
    if (c.consumerNs > 0.0 && start < c.consumerNs) {
      load.windowNs = c.consumerNs - start;
      load.utilization = load.occupancyNs / load.windowNs;
    }
    // Contention is judged against the whole round's critical-path budget:
    // cross-write queuing is deliberately unpriced in the per-chain labels
    // (utilization above 1 is a reported bandwidth-bound hotspot, not an
    // error), but one phase offering a link more serialization than the
    // entire round claims to take is infeasible under any schedule — the
    // claimed steady-state rate cannot exist. Plans without round-wrap
    // edges claim no steady state (perRoundNs == 0) and are exempt.
    if (rep.perRoundNs > kEps && load.occupancyNs > rep.perRoundNs + kEps) {
      addViolation(
          "timing.contention", load.phase,
          "link " + linkLabel({l.node, l.dim, l.sign}) + " is offered " +
              ns1(load.occupancyNs) + " ns of wire serialization (" +
              std::to_string(load.packets) + " packets/round) in phase '" +
              load.phase + "' alone, but the whole round's critical-path "
              "budget is " +
              ns1(rep.perRoundNs) +
              " ns: the link cannot serialize the offered occupancy inside "
              "the claimed round and is the binding resource",
          l.node);
    }
    loads.push_back(std::move(load));
  }
  std::stable_sort(loads.begin(), loads.end(),
                   [](const LinkLoad& a, const LinkLoad& b) {
                     if (a.occupancyNs != b.occupancyNs)
                       return a.occupancyNs > b.occupancyNs;
                     return std::tie(a.node, a.dim, a.sign, a.phase) <
                            std::tie(b.node, b.dim, b.sign, b.phase);
                   });
  if (int(loads.size()) > opts.maxHotspots) loads.resize(std::size_t(opts.maxHotspots));
  rep.hotspots = std::move(loads);

  // --- degraded re-pricing ---------------------------------------------------
  if (!opts.downLinks.empty()) {
    rep.degradedAnalyzed = true;
    std::vector<WriteRoute> degRoutes =
        routeWrites(plan, delivered, opts.downLinks);
    PricedPlan degPriced =
        priceDeliveries(plan, graph, delivered, degRoutes, lat);
    if (degPriced.stalled) {
      rep.degradedStalled = true;
      addViolation("timing.stalled", plan.name,
                   "degraded delivery has no finite bound: " +
                       degPriced.stallDetail,
                   -1);
    } else {
      BoundResult degraded = longestPath(graph, degPriced.slotWeight);
      rep.degradedCriticalPathNs = degraded.maxNs;
      if (rep.criticalPathNs > kEps)
        rep.inflation = degraded.maxNs / rep.criticalPathNs;
      if (rep.inflation > opts.degradedBlowupFactor + kEps) {
        // Name the dominant degraded edge so the diagnostic is actionable.
        std::string dominant = "?";
        double dominantNs = 0.0;
        for (int v = degraded.argmax; v >= 0;
             v = degraded.pred[std::size_t(v)]) {
          int u = degraded.pred[std::size_t(v)];
          if (u < 0) break;
          double edge = degraded.dist[std::size_t(v)] -
                        degraded.dist[std::size_t(u)];
          if (edge > dominantNs) {
            dominantNs = edge;
            dominant = graph.describe(u) + "  ==>  " + graph.describe(v);
          }
        }
        std::string cuts;
        for (const TorusLink& d : opts.downLinks) {
          if (!cuts.empty()) cuts += ", ";
          cuts += linkLabel(d);
        }
        addViolation(
            "timing.degraded-blowup", plan.name,
            "critical path inflates from " + ns1(rep.criticalPathNs) +
                " ns to " + ns1(degraded.maxNs) + " ns (x" +
                ns1(rep.inflation) + ", allowed x" +
                ns1(opts.degradedBlowupFactor) + ") with " + cuts +
                " down; dominant rerouted edge: " + dominant + " (" +
                ns1(dominantNs) + " ns)",
            opts.downLinks.front().node);
      }
    }
  }
  return rep;
}

}  // namespace anton::verify
