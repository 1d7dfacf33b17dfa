#include "verify/plan.hpp"

#include <algorithm>

namespace anton::verify {
namespace {

const std::string kUnknown = "?";

template <typename T>
Range appendRows(std::vector<T>& table, std::span<const T> rows) {
  const auto begin = std::uint32_t(table.size());
  table.insert(table.end(), rows.begin(), rows.end());
  return {begin, std::uint32_t(table.size())};
}

int indexOf(std::vector<std::string>& table, std::string_view s) {
  auto it = std::find(table.begin(), table.end(), s);
  if (it != table.end()) return int(it - table.begin());
  table.emplace_back(s);
  return int(table.size()) - 1;
}

}  // namespace

void addSource(std::vector<SourceCount>& table, std::size_t first, int src,
               std::uint64_t packets) {
  auto it = std::lower_bound(
      table.begin() + std::ptrdiff_t(first), table.end(), src,
      [](const SourceCount& s, int v) { return s.src < v; });
  if (it == table.end() || it->src != src) it = table.insert(it, {src, 0});
  it->packets += packets;
}

const std::string& CommPlan::phaseName(std::size_t phase) const {
  return phase < phases.size() ? phases[phase] : kUnknown;
}

const std::string& CommPlan::nameOf(std::size_t n) const {
  return n < names.size() ? names[n] : kUnknown;
}

int CommPlan::addPhase(std::string_view phase) {
  return indexOf(phases, phase);
}

int CommPlan::addName(std::string_view n) { return indexOf(names, n); }

void CommPlan::addPhaseEdge(std::string_view from, std::string_view to) {
  if (from.empty()) {  // standalone plans chain their first phase after ""
    addPhase(to);
    return;
  }
  int f = addPhase(from);
  int t = addPhase(to);
  phaseEdges.emplace_back(f, t);
}

PlannedWrite& CommPlan::addWrite(std::string_view phase, PlannedWrite w) {
  w.phase = std::uint16_t(addPhase(phase));
  return writes.emplace_back(w);
}

CounterExpectation& CommPlan::addExpectation(
    std::string_view site, std::string_view phase, CounterExpectation e,
    std::span<const SourceCount> bySource) {
  e.site = std::uint16_t(addName(site));
  e.phase = std::uint16_t(addPhase(phase));
  const std::size_t first = sources.size();
  for (const SourceCount& s : bySource)
    addSource(sources, first, s.src, s.packets);
  e.bySource = {std::uint32_t(first), std::uint32_t(sources.size())};
  return expectations.emplace_back(e);
}

MulticastPlanEntry& CommPlan::addTree(
    int patternId, int srcNode, std::span<const TreeRow> treeRowsIn,
    std::span<const net::ClientAddr> destsIn) {
  MulticastPlanEntry& m = multicasts.emplace_back(MulticastPlanEntry{
      patternId, srcNode, appendRows(treeRows, treeRowsIn),
      appendRows(treeDests, destsIn)});
  std::sort(treeRows.begin() + m.rows.begin, treeRows.end(),
            [](const TreeRow& a, const TreeRow& b) {
              return a.first < b.first;
            });
  return m;
}

BufferPlan& CommPlan::addBuffer(std::string_view n, std::string_view freePhase,
                                BufferPlan b,
                                std::span<const BufferWriter> writersIn) {
  b.name = std::uint16_t(addName(n));
  b.freePhase = std::uint16_t(addPhase(freePhase));
  b.writers = appendRows(writers, writersIn);
  return buffers.emplace_back(b);
}

TreeExpansion expandTree(const TreeView& tree, const util::TorusShape& shape,
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
  stack.push_back({tree.srcNode, -1, 0, 0u, {-1, -1, 0}});

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

    auto it = std::lower_bound(
        tree.rows.begin(), tree.rows.end(), f.node,
        [](const TreeRow& r, int node) { return r.first < node; });
    if (it == tree.rows.end() || it->first != f.node || it->second.empty()) {
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

  for (const auto& [node, e] : tree.rows)
    if (node >= 0 && node < shape.size() && !visited[std::size_t(node)])
      out.unreachedEntries.push_back(node);
  return out;
}

}  // namespace anton::verify
