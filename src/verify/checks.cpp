#include "verify/checks.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>

#include "net/latency.hpp"
#include "verify/events.hpp"

namespace anton::verify {
namespace {

using util::TorusCoord;
using util::TorusShape;

std::string clientName(int c) {
  switch (c) {
    case net::kHtis:
      return "htis";
    case net::kAccum0:
      return "accum0";
    case net::kAccum1:
      return "accum1";
    default:
      break;
  }
  if (c >= 0 && c < net::kNumSlices) return "slice" + std::to_string(c);
  return "client" + std::to_string(c);
}

std::string addrName(const net::ClientAddr& a) {
  return "node " + std::to_string(a.node) + "/" + clientName(a.client);
}

/// (node, client, counter): identity of one sync counter instance.
using CounterKey = std::tuple<int, int, int>;

/// Packets per round at one sync counter, in total and per source: what
/// the waits expect, or what the writes deliver.
struct Tally {
  std::uint64_t total = 0;
  std::map<int, std::uint64_t> bySource;
  bool allBySource = true;  ///< every wait record declared a breakdown
  int site = -1;            ///< first wait site naming this counter
};

using ClientSet = std::set<std::pair<int, int>>;

ClientSet clientSet(std::span<const net::ClientAddr> clients) {
  ClientSet out;
  for (const net::ClientAddr& a : clients) out.insert({a.node, a.client});
  return out;
}

/// Coalesce findings that differ only in the node they occurred on, so a
/// plan-wide bug yields one record (with a representative node and a tally)
/// instead of one per node.
std::vector<Violation> coalesce(const std::vector<Violation>& raw) {
  std::vector<Violation> out;
  std::map<std::tuple<std::string, std::string, int, int, int>, std::size_t>
      index;
  for (const Violation& v : raw) {
    auto key = std::make_tuple(v.check, v.site, v.counterId, v.patternId,
                               int(v.severity));
    auto [it, fresh] = index.emplace(key, out.size());
    if (fresh)
      out.push_back(v);
    else
      out[it->second].count += v.count;
  }
  return out;
}

bool dimsAreOrdered(const std::vector<int>& dims) {
  unsigned done = 0;
  int cur = -1;
  for (int d : dims) {
    if (d == cur) continue;
    if (done & (1u << d)) return false;
    if (cur >= 0) done |= 1u << cur;
    cur = d;
  }
  return true;
}

}  // namespace

const char* severityName(Severity s) {
  return s == Severity::kError ? "error" : "lint";
}

RouteTrace traceUnicastRoute(int srcNode, int dstNode, const TorusShape& shape,
                             const std::vector<TorusLink>& downLinks) {
  RouteTrace tr;
  tr.nodes.push_back(srcNode);
  auto down = [&](int node, int dim, int sign) {
    return std::find(downLinks.begin(), downLinks.end(),
                     TorusLink{node, dim, sign}) != downLinks.end();
  };
  TorusCoord dest = util::torusCoordOf(dstNode, shape);
  int cur = srcNode;
  // Mirrors Machine::routeFrom with the identity dimension order (the
  // deterministic order used by in-order packets and recovery resends): the
  // first healthy dimension with remaining distance wins; if every such link
  // is down the packet takes the preferred one and stalls at its adapter.
  int guard = 4 * shape.size() + 8;
  while (cur != dstNode && guard-- > 0) {
    TorusCoord here = util::torusCoordOf(cur, shape);
    int prefDim = -1, prefSign = 0;
    int useDim = -1, useSign = 0;
    for (int dim = 0; dim < 3; ++dim) {
      int delta = util::signedTorusDelta(here[dim], dest[dim],
                                         shape.extent(dim));
      if (delta == 0) continue;
      int sign = delta > 0 ? +1 : -1;
      if (prefDim < 0) {
        prefDim = dim;
        prefSign = sign;
      }
      if (down(cur, dim, sign)) continue;
      useDim = dim;
      useSign = sign;
      break;
    }
    if (prefDim < 0) break;
    if (useDim < 0) {
      useDim = prefDim;
      useSign = prefSign;
      tr.stalled = true;
    }
    if (useDim != prefDim) tr.degraded = true;
    tr.dims.push_back(useDim);
    cur = util::torusIndex(util::torusNeighbor(here, useDim, useSign, shape),
                           shape);
    tr.nodes.push_back(cur);
  }
  tr.dimOrdered = dimsAreOrdered(tr.dims);
  return tr;
}

TreeRepair repairMulticastTree(const TreeView& tree, const TorusShape& shape,
                               const std::vector<TorusLink>& downLinks) {
  TreeRepair rep;
  const ClientSet degReached =
      clientSet(expandTree(tree, shape, downLinks).reached);
  for (const net::ClientAddr& d : tree.dests)
    if (!degReached.count({d.node, d.client})) rep.lostDests.push_back(d);
  if (rep.lostDests.empty()) {  // every declared delivery survives the cuts
    rep.rows.assign(tree.rows.begin(), tree.rows.end());
    return rep;
  }

  // Rebuild the forwarding tables from scratch as the union of degraded
  // unicast routes from the source to every declared destination — the same
  // first-healthy-dimension policy recovery resends use, so the repaired
  // tree is exactly what a resend sweep would trace.
  const ClientSet lost = clientSet(rep.lostDests);
  std::map<int, net::MulticastEntry> rows;
  for (const net::ClientAddr& d : tree.dests) {
    if (d.node < 0 || d.node >= shape.size() || d.client < 0 ||
        d.client >= net::kClientsPerNode)
      continue;  // malformed dests are check-2 findings, not repair targets
    RouteTrace tr = traceUnicastRoute(tree.srcNode, d.node, shape, downLinks);
    if (tr.stalled) {
      rep.stalledDests.push_back(d);
      continue;
    }
    rows[d.node].clientMask |= std::uint8_t(1u << d.client);
    if (!tr.dimOrdered) ++rep.nonDimOrderedRoutes;
    if (lost.count({d.node, d.client})) ++rep.reroutedDests;
    for (std::size_t i = 0; i + 1 < tr.nodes.size(); ++i) {
      int dim = tr.dims[i];
      TorusCoord a = util::torusCoordOf(tr.nodes[i], shape);
      TorusCoord b = util::torusCoordOf(tr.nodes[i + 1], shape);
      int sign =
          util::wrap(b[dim] - a[dim], shape.extent(dim)) == 1 ? +1 : -1;
      rows[tr.nodes[i]].linkMask |=
          std::uint8_t(1u << net::RingLayout::adapterIndex(dim, sign));
    }
  }
  rep.rows.assign(rows.begin(), rows.end());

  // Validate the merged tables: replicas follow the union of the routes, so
  // every routed destination must still be delivered under the same cuts.
  const ClientSet covered =
      clientSet(expandTree(rep.repaired(tree), shape, downLinks).reached);
  const ClientSet stalled = clientSet(rep.stalledDests);
  for (const net::ClientAddr& d : tree.dests)
    if (!stalled.count({d.node, d.client}) &&
        !covered.count({d.node, d.client}))
      rep.stalledDests.push_back(d);
  return rep;
}

VerifyResult verifyPlan(const CommPlan& plan, const VerifyOptions& opts) {
  VerifyResult res;
  std::vector<Violation> raw;
  auto add = [&raw](std::string check, Severity sev, std::string site,
                    std::string detail, int node = -1, int counterId = -1,
                    int patternId = -1) {
    raw.push_back({std::move(check), sev, std::move(site), std::move(detail),
                   node, counterId, patternId, 1});
  };
  Severity routeSev =
      opts.routeIssuesAreErrors ? Severity::kError : Severity::kLint;
  const std::size_t P = plan.phases.size();

  // ---- plan.index: indices and ranges inside their tables ----------------
  auto inTable = [](Range r, std::size_t size) {
    return r.begin <= r.end && r.end <= size;
  };
  auto indexed = [&](const char* kind, std::size_t row, bool ok) {
    if (!ok)
      add("plan.index", Severity::kError, kind,
          std::string(kind) + " " + std::to_string(row) +
              " indexes past one of the plan's tables; it reads as empty");
  };
  for (std::size_t wi = 0; wi < plan.writes.size(); ++wi)
    indexed("write", wi, plan.writes[wi].phase < P);
  for (std::size_t ei = 0; ei < plan.expectations.size(); ++ei) {
    const CounterExpectation& e = plan.expectations[ei];
    indexed("expectation", ei,
            e.phase < P && e.site < plan.names.size() &&
                inTable(e.bySource, plan.sources.size()));
  }
  for (std::size_t mi = 0; mi < plan.multicasts.size(); ++mi)
    indexed("multicast", mi,
            inTable(plan.multicasts[mi].rows, plan.treeRows.size()) &&
                inTable(plan.multicasts[mi].dests, plan.treeDests.size()));
  for (std::size_t bi = 0; bi < plan.buffers.size(); ++bi) {
    const BufferPlan& b = plan.buffers[bi];
    indexed("buffer", bi,
            b.name < plan.names.size() && b.freePhase < P &&
                inTable(b.writers, plan.writers.size()));
  }

  // ---- check 2: multicast well-formedness -------------------------------
  std::vector<TreeExpansion> expansions;
  expansions.reserve(plan.multicasts.size());
  std::map<std::pair<int, int>, int> nodePattern;  // (node, patternId) owner
  std::map<int, std::set<int>> patternsPerNode;
  for (std::size_t mi = 0; mi < plan.multicasts.size(); ++mi) {
    const MulticastPlanEntry& m = plan.multicasts[mi];
    const TreeView tree = plan.tree(m);
    std::string site = "pattern " + std::to_string(m.patternId);
    if (m.patternId < 0 || m.patternId >= net::kMulticastPatterns)
      add("multicast.pattern-limit", Severity::kError, site,
          "pattern id " + std::to_string(m.patternId) +
              " outside the " + std::to_string(net::kMulticastPatterns) +
              "-entry per-node tables",
          m.srcNode, -1, m.patternId);
    for (const auto& [node, entry] : tree.rows) {
      (void)entry;
      auto [it, fresh] = nodePattern.emplace(
          std::make_pair(node, m.patternId), int(mi));
      if (!fresh && it->second != int(mi))
        add("multicast.conflict", Severity::kError, site,
            "pattern id " + std::to_string(m.patternId) +
                " installed twice at node " + std::to_string(node) +
                " by different trees",
            node, -1, m.patternId);
      patternsPerNode[node].insert(m.patternId);
    }

    expansions.push_back(expandTree(tree, plan.shape));
    const TreeExpansion& x = expansions.back();
    if (x.cycle)
      add("multicast.cycle", Severity::kError, site,
          "fan-out walk from node " + std::to_string(m.srcNode) +
              " revisits a node (cyclic tree)",
          m.srcNode, -1, m.patternId);
    if (!x.emptyEntryNodes.empty())
      add("multicast.empty-entry", Severity::kError, site,
          "replica reaches node " + std::to_string(x.emptyEntryNodes.front()) +
              " which has no table entry (" +
              std::to_string(x.emptyEntryNodes.size()) +
              " such node(s)); the hardware would drop it",
          x.emptyEntryNodes.front(), -1, m.patternId);
    if (!x.unreachedEntries.empty())
      add("multicast.dead-entry", Severity::kLint, site,
          std::to_string(x.unreachedEntries.size()) +
              " table entr(ies) (first: node " +
              std::to_string(x.unreachedEntries.front()) +
              ") are never reached by the fan-out walk",
          x.unreachedEntries.front(), -1, m.patternId);
    if (!x.dimOrdered)
      add("multicast.dim-order", routeSev, site,
          "a root-to-leaf path is not dimension-ordered (deadlock risk on "
          "the wormhole fabric)",
          m.srcNode, -1, m.patternId);

    const ClientSet reached = clientSet(x.reached);
    const ClientSet declared = clientSet(tree.dests);
    if (reached != declared) {
      std::string detail;
      for (const auto& d : declared)
        if (!reached.count(d)) {
          detail = "declared destination " +
                   addrName({d.first, d.second}) + " is never reached";
          break;
        }
      if (detail.empty())
        for (const auto& r : reached)
          if (!declared.count(r)) {
            detail = "fan-out delivers to undeclared destination " +
                     addrName({r.first, r.second});
            break;
          }
      add("multicast.dests", Severity::kError, site, detail, m.srcNode, -1,
          m.patternId);
    }

    if (!opts.downLinks.empty()) {
      // Re-run the fan-out with the declared links cut. A lost destination
      // means the live machine would stall the fan-out today; report whether
      // rerouted unicast trees (what a recovery resend sweep traces) can
      // re-cover the full destination set.
      TreeExpansion deg = expandTree(tree, plan.shape, opts.downLinks);
      const ClientSet degReached = clientSet(deg.reached);
      bool lossy = !deg.cutLinks.empty();
      for (const auto& d : reached)
        if (!degReached.count(d)) lossy = true;
      if (lossy) {
        TreeRepair rep = repairMulticastTree(tree, plan.shape, opts.downLinks);
        if (rep.ok()) {
          ++res.multicastsRepaired;
          std::string detail =
              "down links cut " + std::to_string(rep.lostDests.size()) +
              " of " + std::to_string(tree.dests.size()) +
              " destination(s) from the tree; repaired by rerouting (" +
              std::to_string(rep.reroutedDests) + " rerouted";
          if (rep.nonDimOrderedRoutes > 0)
            detail += ", " + std::to_string(rep.nonDimOrderedRoutes) +
                      " repair route(s) not dimension-ordered";
          detail += ")";
          add("multicast.degraded", Severity::kLint, site, detail, m.srcNode,
              -1, m.patternId);
        } else {
          ++res.multicastsStalled;
          add("multicast.stalled", routeSev, site,
              "down links cut " + std::to_string(rep.lostDests.size()) +
                  " destination(s) from the tree and " +
                  std::to_string(rep.stalledDests.size()) +
                  " (first: " + addrName(rep.stalledDests.front()) +
                  ") cannot be re-covered by any degraded route; the "
                  "fan-out stalls for the outage",
              m.srcNode, -1, m.patternId);
        }
      }
    }
  }
  for (const auto& [node, ids] : patternsPerNode)
    if (int(ids.size()) > net::kMulticastPatterns)
      add("multicast.pattern-limit", Severity::kError,
          "node " + std::to_string(node),
          std::to_string(ids.size()) + " patterns installed at node " +
              std::to_string(node) + " (table holds " +
              std::to_string(net::kMulticastPatterns) + ")",
          node);

  // ---- check 1: count consistency ---------------------------------------
  std::map<CounterKey, Tally> expected;
  for (const CounterExpectation& e : plan.expectations) {
    Tally& x = expected[{e.client.node, e.client.client, e.counterId}];
    x.total += e.perRound;
    if (x.site < 0) x.site = e.site;
    if (plan.bySource(e).empty()) x.allBySource = false;
    for (const SourceCount& s : plan.bySource(e))
      x.bySource[s.src] += s.packets;
  }

  const Delivered delivered = deliveredTargets(plan, expansions);
  std::map<CounterKey, Tally> actual;
  for (std::size_t wi = 0; wi < plan.writes.size(); ++wi) {
    const PlannedWrite& w = plan.writes[wi];
    const std::string& phase = plan.phaseName(w.phase);
    if (w.pattern != net::kNoMulticast && delivered.tree[wi] < 0) {
      add("count.unknown-pattern", Severity::kError, phase,
          "write in phase '" + phase + "' from node " +
              std::to_string(w.srcNode) + " references pattern " +
              std::to_string(w.pattern) +
              " but no declared tree has that id and source",
          w.srcNode, w.counterId, w.pattern);
      continue;
    }
    if (w.counterId == net::kNoCounter) continue;
    for (const net::ClientAddr& d : delivered.of(wi)) {
      Tally& a = actual[{d.node, d.client, w.counterId}];
      a.total += w.packets;
      a.bySource[w.srcNode] += w.packets;
    }
  }

  for (const auto& [key, exp] : expected) {
    auto [node, client, ctr] = key;
    const std::string& site = plan.nameOf(std::size_t(exp.site));
    auto it = actual.find(key);
    std::uint64_t got = it == actual.end() ? 0 : it->second.total;
    if (got != exp.total) {
      add("count", Severity::kError, site,
          "counter " + std::to_string(ctr) + " at " +
              addrName({node, client}) + ": plan delivers " +
              std::to_string(got) + " packets/round, wait expects " +
              std::to_string(exp.total),
          node, ctr);
      continue;  // per-source detail would just repeat the mismatch
    }
    if (!exp.allBySource || it == actual.end()) continue;
    const auto& gotBy = it->second.bySource;
    if (gotBy == exp.bySource) continue;
    std::string detail = "counter " + std::to_string(ctr) + " at " +
                         addrName({node, client}) +
                         ": per-source breakdown disagrees";
    for (const auto& [src, n] : exp.bySource) {
      auto g = gotBy.find(src);
      std::uint64_t gn = g == gotBy.end() ? 0 : g->second;
      if (gn != n) {
        detail += " (source node " + std::to_string(src) + ": planned " +
                  std::to_string(gn) + ", expected " + std::to_string(n) + ")";
        break;
      }
    }
    add("count.by-source", Severity::kError, site, detail, node, ctr);
  }
  for (const auto& [key, act] : actual) {
    if (expected.count(key)) continue;
    auto [node, client, ctr] = key;
    add("count.unwaited", Severity::kLint, "counter " + std::to_string(ctr),
        "counter " + std::to_string(ctr) + " at " + addrName({node, client}) +
            " receives " + std::to_string(act.total) +
            " packets/round but no wait site targets it",
        node, ctr);
  }

  // ---- check 5: recovery coverage ---------------------------------------
  // Per site: {armed, unarmed, first counter}; the last slot collects sites
  // outside the name table.
  std::vector<std::array<int, 3>> siteArm(plan.names.size() + 1, {0, 0, -1});
  for (const CounterExpectation& e : plan.expectations) {
    auto& [armed, unarmed, ctr] =
        siteArm[std::min<std::size_t>(e.site, plan.names.size())];
    if (armed + unarmed == 0) ctr = e.counterId;
    (e.recoveryArmed ? armed : unarmed) += 1;
  }
  for (std::size_t si = 0; si < siteArm.size(); ++si)
    if (const auto& [armed, unarmed, ctr] = siteArm[si]; unarmed > 0)
      add("recovery-coverage", Severity::kLint, plan.nameOf(si),
          std::to_string(unarmed) + " counted-wait record(s) at site '" +
              plan.nameOf(si) + "' wait unarmed (no recoverCounted "
              "deadline); a dropped packet hangs the step",
          -1, ctr);

  // ---- check 4: deadlock freedom of unicast routes ----------------------
  std::set<std::pair<int, int>> traced;
  for (const PlannedWrite& w : plan.writes) {
    if (w.pattern != net::kNoMulticast) continue;
    if (w.dst.node < 0 || w.dst.node == w.srcNode) continue;
    if (!traced.insert({w.srcNode, w.dst.node}).second) continue;
    RouteTrace tr =
        traceUnicastRoute(w.srcNode, w.dst.node, plan.shape, opts.downLinks);
    ++res.routesTraced;
    const std::string& phase = plan.phaseName(w.phase);
    std::string site =
        "route " + std::to_string(w.srcNode) + "->" +
        std::to_string(w.dst.node);
    if (!tr.dimOrdered)
      add("route.dim-order", routeSev, phase,
          site + " (phase '" + phase + "') is not dimension-ordered after "
          "rerouting around down links (deadlock risk)",
          w.srcNode, w.counterId);
    if (tr.stalled)
      add("route.stalled", routeSev, phase,
          site + " (phase '" + phase + "') has a hop where every usable "
          "link is down; the packet stalls for the outage",
          w.srcNode, w.counterId);
    if (tr.degraded && tr.dimOrdered && !tr.stalled)
      add("route.degraded", Severity::kLint, phase,
          site + " (phase '" + phase + "') deviates from its preferred "
          "dimension to avoid a down link (still dimension-ordered)",
          w.srcNode, w.counterId);
  }

  // ---- checks 3 + 6: event-granular happens-before graph -----------------
  // Every phase is expanded into its ordered operations (waits, buffer
  // frees, counted sends) and the checks run over concrete reachability on
  // the unrolled graph (verify/events.hpp). Buffer reuse: the counter fire
  // that frees a copy in round r must happen-before every write into it in
  // round r + copies — the §4 no-barrier argument at the granularity where
  // the single-buffered all-reduce actually breaks. Static deadlock: a cycle
  // in the graph is a wait that transitively blocks the send that would
  // satisfy it.
  res.buffersTotal = int(plan.buffers.size());
  if (!plan.phases.empty()) {
    const int N = plan.shape.size();
    int maxCopies = 1;
    for (const BufferPlan& b : plan.buffers)
      maxCopies = std::max(maxCopies, b.copies);
    EventGraph graph(plan, maxCopies + 1, delivered);
    res.eventsModeled = graph.numSlots();

    std::vector<int> cycle = graph.findCycle();
    if (!cycle.empty()) {
      // Prefer the real operations over phase anchors in the diagnostic, but
      // fall back to anchors when the cycle is purely structural.
      std::vector<int> shown;
      for (std::size_t i = 0; i + 1 < cycle.size(); ++i) {
        EventKind k = graph.event(graph.slotOf(cycle[i])).kind;
        if (k != EventKind::kPhaseEntry && k != EventKind::kPhaseExit)
          shown.push_back(cycle[i]);
      }
      if (shown.empty())
        shown.assign(cycle.begin(), cycle.end() - 1);
      std::string detail = "happens-before cycle (" +
                           std::to_string(cycle.size() - 1) + " event(s)): ";
      const std::size_t cap = 12;
      for (std::size_t i = 0; i < shown.size() && i < cap; ++i) {
        if (i) detail += " -> ";
        detail += graph.describe(shown[i]);
      }
      if (shown.size() > cap)
        detail += " -> ... (" + std::to_string(shown.size() - cap) + " more)";
      detail += " -> (back to start); the plan can never make progress";
      add("event.deadlock", Severity::kError, "event-graph", detail,
          graph.event(graph.slotOf(cycle.front())).node);
    }

    // Which writes from (node, phase) deliver into a given client: the
    // buffer's declared writers are matched to their send events so the
    // reachability target is the actual counted send, not the whole phase.
    std::map<std::pair<int, int>, std::vector<std::size_t>> writesAt;
    for (std::size_t wi = 0; wi < plan.writes.size(); ++wi)
      writesAt[{plan.writes[wi].srcNode, plan.writes[wi].phase}].push_back(wi);

    std::map<int, std::vector<char>> reachMemo;
    auto reachableFrom = [&](int src) -> const std::vector<char>& {
      auto [it, fresh] = reachMemo.emplace(src, std::vector<char>());
      if (fresh) it->second = graph.reachableFrom(src);
      return it->second;
    };

    std::size_t stride = 1;
    if (opts.maxBufferOwners > 0 &&
        plan.buffers.size() > std::size_t(opts.maxBufferOwners)) {
      stride = (plan.buffers.size() + std::size_t(opts.maxBufferOwners) - 1) /
               std::size_t(opts.maxBufferOwners);
      res.sampled = true;
    }
    for (std::size_t bi = 0; bi < plan.buffers.size(); bi += stride) {
      const BufferPlan& b = plan.buffers[bi];
      const std::string& name = plan.nameOf(b.name);
      ++res.buffersChecked;
      int fs = graph.freeSlot(bi);
      if (fs < 0 || b.client.node < 0 || b.client.node >= N) {
        add("buffer-reuse.bad-phase", Severity::kError, name,
            "buffer '" + name + "' names unknown free phase '" +
                plan.phaseName(b.freePhase) + "' or owner " +
                addrName(b.client),
            b.client.node);
        continue;
      }
      const std::vector<char>& seen =
          reachableFrom(graph.vertex(fs, 0));
      for (const BufferWriter& w : plan.writersOf(b)) {
        if (w.phase >= P || w.node < 0 || w.node >= N) {
          add("buffer-reuse.bad-phase", Severity::kError, name,
              "buffer '" + name + "' writer names unknown phase '" +
                  plan.phaseName(w.phase) + "' or node " +
                  std::to_string(w.node),
              w.node);
          continue;
        }
        // The writer's send events into this buffer's owner; when the phase
        // has no modeled write into the owner, fall back to the phase-entry
        // anchor (preserves the coarse argument for unmodeled writes).
        std::vector<int> targets;
        auto wit = writesAt.find({w.node, w.phase});
        if (wit != writesAt.end()) {
          for (std::size_t wi : wit->second) {
            const std::span<const net::ClientAddr> to = delivered.of(wi);
            if (std::find(to.begin(), to.end(), b.client) != to.end() &&
                graph.sendSlot(wi) >= 0)
              targets.push_back(graph.sendSlot(wi));
          }
        }
        if (targets.empty())
          targets.push_back(graph.entrySlot(w.node, w.phase));
        for (int slot : targets) {
          int target = graph.vertex(slot, b.copies);
          if (seen[std::size_t(target)]) continue;
          add("buffer-reuse", Severity::kError, name,
              "buffer '" + name + "' at " + addrName(b.client) +
                  ": no happens-before path from the freeing counter fire "
                  "(phase '" + plan.phaseName(b.freePhase) + "', round 0) to " +
                  graph.describe(target) +
                  "; the write can land before the copy is free",
              b.client.node);
          break;  // one finding per writer record
        }
      }
    }
  } else {
    res.buffersChecked = 0;
  }

  for (Violation& v : coalesce(raw)) {
    if (v.severity == Severity::kError)
      res.violations.push_back(std::move(v));
    else
      res.lints.push_back(std::move(v));
  }
  return res;
}

}  // namespace anton::verify
