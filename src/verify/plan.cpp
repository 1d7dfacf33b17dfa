#include "verify/plan.hpp"

#include <algorithm>

#include "net/latency.hpp"

namespace anton::verify {

int CommPlan::phaseIndex(const std::string& phase) const {
  auto it = std::find(phases.begin(), phases.end(), phase);
  return it == phases.end() ? -1 : int(it - phases.begin());
}

int CommPlan::addPhase(const std::string& phase) {
  int idx = phaseIndex(phase);
  if (idx >= 0) return idx;
  phases.push_back(phase);
  return int(phases.size()) - 1;
}

void CommPlan::addPhaseEdge(const std::string& from, const std::string& to) {
  if (from.empty()) {  // standalone plans chain their first phase after ""
    addPhase(to);
    return;
  }
  int f = addPhase(from);
  int t = addPhase(to);
  phaseEdges.emplace_back(f, t);
}

std::vector<int> writeTrees(const CommPlan& plan) {
  // A pattern id may back several trees with disjoint footprints (the
  // allocator reuses ids exactly as the 256-entry tables allow).
  std::map<std::pair<int, int>, int> bySource;  // (id, source) -> first tree
  std::map<int, int> byId;  // id -> its only tree, -1 when shared
  for (int mi = 0; mi < int(plan.multicasts.size()); ++mi) {
    const MulticastPlanEntry& m = plan.multicasts[std::size_t(mi)];
    bySource.try_emplace({m.patternId, m.srcNode}, mi);
    if (auto [it, fresh] = byId.try_emplace(m.patternId, mi); !fresh)
      it->second = -1;
  }
  std::vector<int> trees(plan.writes.size(), -1);
  for (std::size_t wi = 0; wi < plan.writes.size(); ++wi) {
    const PlannedWrite& w = plan.writes[wi];
    if (w.pattern == net::kNoMulticast) continue;
    if (auto it = bySource.find({w.pattern, w.srcNode}); it != bySource.end())
      trees[wi] = it->second;
    else if (auto id = byId.find(w.pattern); id != byId.end())
      trees[wi] = id->second;
  }
  return trees;
}

TreeExpansion expandTree(const MulticastPlanEntry& entry,
                         const util::TorusShape& shape,
                         const std::vector<TorusLink>& downLinks) {
  TreeExpansion out;
  std::vector<char> visited(std::size_t(shape.size()), 0);

  // Depth-first walk replicating the hardware fan-out: clientMask bits are
  // local deliveries, linkMask bits continue the walk. Each frame carries
  // the dimension-run state of its root-to-node path so dimension order can
  // be checked per path (a dimension may not be revisited after the walk
  // has moved on to another one, and a run must not reverse sign).
  struct Frame {
    int node;
    int curDim;      // dimension of the current run, -1 at the source
    int curSign;
    unsigned doneDims;  // bit d: dimension d's run is complete
    TorusLink in;       // the link the walk entered `node` by
  };
  std::vector<Frame> stack;
  stack.push_back({entry.srcNode, -1, 0, 0u, {-1, -1, 0}});

  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (f.node < 0 || f.node >= shape.size()) {
      out.emptyEntryNodes.push_back(f.node);
      continue;
    }
    if (visited[std::size_t(f.node)]) {
      out.cycle = true;
      continue;  // the visited guard bounds malformed walks
    }
    visited[std::size_t(f.node)] = 1;
    out.visited.push_back(f.node);
    out.enteredBy.push_back(f.in);

    auto it = entry.entries.find(f.node);
    if (it == entry.entries.end() || it->second.empty()) {
      // A replica arrived here with no table row to route it: the hardware
      // would drop it (the machine model throws). The source itself may
      // legitimately have no entry only if the whole tree is empty.
      out.emptyEntryNodes.push_back(f.node);
      continue;
    }
    const net::MulticastEntry& e = it->second;
    for (int c = 0; c < net::kClientsPerNode; ++c)
      if (e.clientMask & (1u << c)) out.reached.push_back({f.node, c});
    for (int a = 0; a < 6; ++a) {
      if (!(e.linkMask & (1u << a))) continue;
      int dim = a / 2;
      int sign = a % 2 == 0 ? +1 : -1;
      if (std::find(downLinks.begin(), downLinks.end(),
                    TorusLink{f.node, dim, sign}) != downLinks.end()) {
        // The replica cannot leave on a dead link: the whole subtree behind
        // it is lost (the fan-out has no reroute of its own).
        out.cutLinks.push_back({f.node, dim, sign});
        continue;
      }
      Frame next = f;
      if (dim != f.curDim) {
        if (f.doneDims & (1u << dim)) out.dimOrdered = false;
        if (f.curDim >= 0) next.doneDims |= 1u << f.curDim;
        next.curDim = dim;
        next.curSign = sign;
      } else if (sign != f.curSign) {
        out.dimOrdered = false;  // reversing along the run
      }
      util::TorusCoord c = util::torusCoordOf(f.node, shape);
      next.node = util::torusIndex(util::torusNeighbor(c, dim, sign, shape),
                                   shape);
      next.in = {f.node, dim, sign};
      stack.push_back(next);
    }
  }

  for (const auto& [node, e] : entry.entries)
    if (node >= 0 && node < shape.size() && !visited[std::size_t(node)])
      out.unreachedEntries.push_back(node);
  std::sort(out.unreachedEntries.begin(), out.unreachedEntries.end());
  return out;
}

}  // namespace anton::verify
