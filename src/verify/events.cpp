#include "verify/events.hpp"

#include <algorithm>
#include <climits>
#include <cstddef>
#include <deque>
#include <map>
#include <tuple>

namespace anton::verify {
namespace {

/// The sync counter a wait waits on: (node, client, counter).
auto counterOf(const CounterExpectation& e) {
  return std::tie(e.client.node, e.client.client, e.counterId);
}

/// Sort rank at equal seq: the counter wait fires, the freed buffer copy is
/// retired, and only then do the phase's sends go out.
int kindRank(EventKind k) {
  switch (k) {
    case EventKind::kWait:
      return 0;
    case EventKind::kFree:
      return 1;
    case EventKind::kSend:
    case EventKind::kPhaseEntry:
    case EventKind::kPhaseExit:
      return 2;  // anchors are placed explicitly, never sorted
  }
  return 2;
}

}  // namespace

Delivered deliveredTargets(const CommPlan& plan,
                           std::span<const TreeExpansion> expansions) {
  std::vector<TreeExpansion> walked;
  if (expansions.empty()) {
    for (const MulticastPlanEntry& m : plan.multicasts)
      walked.push_back(expandTree(plan.tree(m), plan.shape));
    expansions = walked;
  }
  // A pattern id may back several trees with disjoint footprints (the
  // allocator reuses ids exactly as the 256-entry tables allow).
  std::map<std::pair<int, int>, int> bySource;  // (id, source) -> first tree
  std::map<int, int> byId;  // id -> its only tree, -1 when shared
  for (std::size_t mi = 0; mi < plan.multicasts.size(); ++mi) {
    const MulticastPlanEntry& m = plan.multicasts[mi];
    bySource.try_emplace({m.patternId, m.srcNode}, int(mi));
    if (auto [it, fresh] = byId.try_emplace(m.patternId, int(mi)); !fresh)
      it->second = -1;
  }
  auto resolve = [&](int id, int src) {
    if (auto it = bySource.find({id, src}); it != bySource.end())
      return it->second;
    auto it = byId.find(id);
    return it == byId.end() ? -1 : it->second;
  };

  Delivered out;
  out.tree.assign(plan.writes.size(), -1);
  out.first.push_back(0);
  for (std::size_t wi = 0; wi < plan.writes.size(); ++wi) {
    const PlannedWrite& w = plan.writes[wi];
    if (w.pattern == net::kNoMulticast) {
      if (w.dst.node >= 0) out.clients.push_back(w.dst);
    } else if ((out.tree[wi] = resolve(w.pattern, w.srcNode)) >= 0) {
      const std::vector<net::ClientAddr>& reached =
          expansions[std::size_t(out.tree[wi])].reached;
      out.clients.insert(out.clients.end(), reached.begin(), reached.end());
    }
    out.first.push_back(std::uint32_t(out.clients.size()));
  }
  return out;
}

EventGraph::EventGraph(const CommPlan& plan, int rounds,
                       const Delivered& delivered)
    : plan_(plan),
      rounds_(std::max(rounds, 1)),
      numPhases_(int(plan.phases.size())),
      numNodes_(plan.shape.size()) {
  buildSlots(plan);
  buildEdges(plan, delivered);
}

void EventGraph::buildSlots(const CommPlan& plan) {
  const std::size_t P = std::size_t(numPhases_);
  const std::size_t N = std::size_t(numNodes_);
  struct Item {
    std::size_t group;  ///< node * P + phase
    int seq;
    int rank;
    int order;  ///< insertion order, for a stable tie-break
    Event ev;
  };
  std::vector<Item> items;
  items.reserve(plan.expectations.size() + plan.buffers.size() +
                plan.writes.size());
  // (node, phase) group of a record; N * P when out of range.
  auto groupOf = [&](int node, std::size_t phase) {
    return node < 0 || std::size_t(node) >= N || phase >= P
               ? N * P
               : std::size_t(node) * P + phase;
  };
  auto add = [&](EventKind kind, std::size_t group, int node, int seq,
                 std::size_t ref) {
    if (group < N * P)
      items.push_back({group, seq, kindRank(kind), int(items.size()),
                       {kind, node, int(group % P), int(ref)}});
  };

  // The free event of a buffer fires when the freePhase's waits are done:
  // it sorts after the last wait of its (node, phase) group.
  std::vector<int> maxWaitSeq(N * P + 1, INT_MIN);
  for (std::size_t ei = 0; ei < plan.expectations.size(); ++ei) {
    const CounterExpectation& e = plan.expectations[ei];
    const std::size_t g = groupOf(e.client.node, e.phase);
    add(EventKind::kWait, g, e.client.node, e.seq, ei);
    maxWaitSeq[g] = std::max(maxWaitSeq[g], e.seq);
  }
  for (std::size_t bi = 0; bi < plan.buffers.size(); ++bi) {
    const BufferPlan& b = plan.buffers[bi];
    const std::size_t g = groupOf(b.client.node, b.freePhase);
    add(EventKind::kFree, g, b.client.node,
        maxWaitSeq[g] == INT_MIN ? 0 : maxWaitSeq[g], bi);
  }
  for (std::size_t wi = 0; wi < plan.writes.size(); ++wi) {
    const PlannedWrite& w = plan.writes[wi];
    add(EventKind::kSend, groupOf(w.srcNode, w.phase), w.srcNode, w.seq, wi);
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return std::tie(a.group, a.seq, a.rank, a.order) <
           std::tie(b.group, b.seq, b.rank, b.order);
  });

  waitSlot_.assign(plan.expectations.size(), -1);
  sendSlot_.assign(plan.writes.size(), -1);
  freeSlot_.assign(plan.buffers.size(), -1);
  groupStart_.assign(N * P + 1, 0);
  events_.clear();
  events_.reserve(items.size() + 2 * N * P);
  auto item = items.begin();
  for (std::size_t np = 0; np < N * P; ++np) {
    const int n = int(np / P), p = int(np % P);
    groupStart_[np] = int(events_.size());
    events_.push_back({EventKind::kPhaseEntry, n, p, -1});
    for (; item != items.end() && item->group == np; ++item) {
      std::vector<int>& slots = item->ev.kind == EventKind::kWait   ? waitSlot_
                                : item->ev.kind == EventKind::kFree ? freeSlot_
                                                                    : sendSlot_;
      slots[std::size_t(item->ev.ref)] = int(events_.size());
      events_.push_back(item->ev);
    }
    events_.push_back({EventKind::kPhaseExit, n, p, -1});
  }
  groupStart_[N * P] = int(events_.size());

  waits_.clear();
  for (std::size_t ei = 0; ei < plan.expectations.size(); ++ei)
    if (waitSlot_[ei] >= 0) waits_.push_back(int(ei));
  std::sort(waits_.begin(), waits_.end(), [&](int a, int b) {
    return std::pair(counterOf(plan.expectations[std::size_t(a)]), a) <
           std::pair(counterOf(plan.expectations[std::size_t(b)]), b);
  });
}

std::span<const int> EventGraph::waitsOn(const net::ClientAddr& client,
                                         int counterId) const {
  const auto key = std::tie(client.node, client.client, counterId);
  auto of = [&](int ei) {
    return counterOf(plan_.expectations[std::size_t(ei)]);
  };
  auto lo = std::partition_point(waits_.begin(), waits_.end(),
                                 [&](int ei) { return of(ei) < key; });
  auto hi = std::partition_point(lo, waits_.end(),
                                 [&](int ei) { return of(ei) == key; });
  return {lo, hi};
}

void EventGraph::buildEdges(const CommPlan& plan, const Delivered& delivered) {
  const int P = numPhases_;
  const int N = numNodes_;
  const int R = rounds_;
  auto entry = [&](int n, int p) {
    return groupStart_[std::size_t(n) * std::size_t(P) + std::size_t(p)];
  };
  auto exit = [&](int n, int p) {
    return groupStart_[std::size_t(n) * std::size_t(P) + std::size_t(p) + 1] -
           1;
  };

  // Phase precedence (strictly-before) over the plan's phase DAG.
  std::vector<char> strictBefore(std::size_t(P) * std::size_t(P), 0);
  {
    std::vector<std::vector<int>> succ;
    succ.resize(std::size_t(P));
    for (const auto& [f, t] : plan.phaseEdges)
      if (f >= 0 && f < P && t >= 0 && t < P)
        succ[std::size_t(f)].push_back(t);
    for (int p = 0; p < P; ++p) {
      std::deque<int> q{p};
      std::vector<char> seen(std::size_t(P), 0);
      seen[std::size_t(p)] = 1;
      while (!q.empty()) {
        int v = q.front();
        q.pop_front();
        for (int s : succ[std::size_t(v)])
          if (!seen[std::size_t(s)]) {
            seen[std::size_t(s)] = 1;
            strictBefore[std::size_t(p) * std::size_t(P) + std::size_t(s)] = 1;
            q.push_back(s);
          }
      }
    }
  }
  auto before = [&](int p, int q) {
    return strictBefore[std::size_t(p) * std::size_t(P) + std::size_t(q)] != 0;
  };
  auto phaseOf = [&](int ei) {
    return int(plan.expectations[std::size_t(ei)].phase);
  };

  // Delivery targets of each counted send: the precedence-minimal matching
  // wait phases not strictly before the send (same round), or — when every
  // matching wait is strictly before it — the next round's minimal waits.
  struct Target {
    std::size_t write;
    int waitSlot;
    bool nextRound;
  };
  std::vector<Target> targets;
  std::vector<int> eligible;
  for (std::size_t wi = 0; wi < plan.writes.size(); ++wi) {
    const PlannedWrite& w = plan.writes[wi];
    if (sendSlot_[wi] < 0 || w.counterId == net::kNoCounter) continue;
    const int wp = w.phase;
    for (const net::ClientAddr& d : delivered.of(wi)) {
      const std::span<const int> matching = waitsOn(d, w.counterId);
      if (matching.empty()) continue;
      eligible.clear();
      for (int ei : matching)
        if (!before(phaseOf(ei), wp)) eligible.push_back(ei);
      const bool nextRound = eligible.empty();
      const std::span<const int> pool =
          nextRound ? matching : std::span<const int>(eligible);
      for (int ei : pool) {
        const bool minimal =
            std::none_of(pool.begin(), pool.end(), [&](int other) {
              return other != ei && before(phaseOf(other), phaseOf(ei));
            });
        if (minimal)
          targets.push_back({wi, waitSlot_[std::size_t(ei)], nextRound});
      }
    }
  }

  // Round-wrap endpoints: each node's sink phases order the next round's
  // source phases on the same node.
  std::vector<char> hasIn(std::size_t(P), 0), hasOut(std::size_t(P), 0);
  for (const auto& [f, t] : plan.phaseEdges) {
    if (f < 0 || f >= P || t < 0 || t >= P) continue;
    hasOut[std::size_t(f)] = 1;
    hasIn[std::size_t(t)] = 1;
  }

  auto forEachEdge = [&](auto&& emit) {
    // Program order along each (node, phase) chain.
    for (std::size_t np = 0; np + 1 < groupStart_.size(); ++np)
      for (int s = groupStart_[np]; s + 1 < groupStart_[np + 1]; ++s)
        for (int r = 0; r < R; ++r) emit(vertex(s, r), vertex(s + 1, r));
    // Program order along the phase DAG.
    for (const auto& [f, t] : plan.phaseEdges) {
      if (f < 0 || f >= P || t < 0 || t >= P) continue;
      for (int n = 0; n < N; ++n)
        for (int r = 0; r < R; ++r)
          emit(vertex(exit(n, f), r), vertex(entry(n, t), r));
    }
    // Round wrap: sink phases to the next round's source phases.
    for (int p = 0; p < P; ++p) {
      if (hasOut[std::size_t(p)]) continue;
      for (int q = 0; q < P; ++q) {
        if (hasIn[std::size_t(q)]) continue;
        for (int n = 0; n < N; ++n)
          for (int r = 0; r + 1 < R; ++r)
            emit(vertex(exit(n, p), r), vertex(entry(n, q), r + 1));
      }
    }
    // Counted delivery: send to the waits its counter satisfies.
    for (const Target& t : targets)
      for (int r = 0; r < R; ++r) {
        int tr = r + (t.nextRound ? 1 : 0);
        if (tr >= R) continue;
        emit(vertex(sendSlot_[t.write], r), vertex(t.waitSlot, tr));
      }
  };

  std::vector<int> degree(std::size_t(numVertices()) + 1, 0);
  forEachEdge([&](int u, int) { ++degree[std::size_t(u) + 1]; });
  for (std::size_t i = 1; i < degree.size(); ++i) degree[i] += degree[i - 1];
  adjStart_ = degree;
  adjEdges_.assign(std::size_t(adjStart_.back()), 0);
  std::vector<int> fill = adjStart_;
  forEachEdge([&](int u, int v) {
    adjEdges_[std::size_t(fill[std::size_t(u)]++)] = v;
  });
}

int EventGraph::sendSlot(std::size_t writeIndex) const {
  return writeIndex < sendSlot_.size() ? sendSlot_[writeIndex] : -1;
}

int EventGraph::waitSlot(std::size_t expectationIndex) const {
  return expectationIndex < waitSlot_.size() ? waitSlot_[expectationIndex]
                                             : -1;
}

int EventGraph::freeSlot(std::size_t bufferIndex) const {
  return bufferIndex < freeSlot_.size() ? freeSlot_[bufferIndex] : -1;
}

int EventGraph::entrySlot(int node, int phase) const {
  if (node < 0 || node >= numNodes_ || phase < 0 || phase >= numPhases_)
    return -1;
  return groupStart_[std::size_t(node) * std::size_t(numPhases_) +
                     std::size_t(phase)];
}

std::vector<char> EventGraph::reachableFrom(int vertex) const {
  std::vector<char> seen(std::size_t(numVertices()), 0);
  std::deque<int> q{vertex};
  seen[std::size_t(vertex)] = 1;
  while (!q.empty()) {
    int v = q.front();
    q.pop_front();
    for (int i = adjStart_[std::size_t(v)]; i < adjStart_[std::size_t(v) + 1];
         ++i) {
      int n = adjEdges_[std::size_t(i)];
      if (!seen[std::size_t(n)]) {
        seen[std::size_t(n)] = 1;
        q.push_back(n);
      }
    }
  }
  return seen;
}

std::vector<int> EventGraph::findCycle() const {
  // Iterative DFS; a back edge to a gray vertex closes a cycle, recovered
  // from the explicit path stack so the diagnostic can show every event on
  // it.
  const int V = numVertices();
  std::vector<char> color(std::size_t(V), 0);  // 0 white, 1 gray, 2 black
  std::vector<int> edgeIt(std::size_t(V), 0);
  std::vector<int> path;
  for (int root = 0; root < V; ++root) {
    if (color[std::size_t(root)] != 0) continue;
    path.push_back(root);
    color[std::size_t(root)] = 1;
    edgeIt[std::size_t(root)] = adjStart_[std::size_t(root)];
    while (!path.empty()) {
      int v = path.back();
      if (edgeIt[std::size_t(v)] < adjStart_[std::size_t(v) + 1]) {
        int n = adjEdges_[std::size_t(edgeIt[std::size_t(v)]++)];
        if (color[std::size_t(n)] == 0) {
          color[std::size_t(n)] = 1;
          edgeIt[std::size_t(n)] = adjStart_[std::size_t(n)];
          path.push_back(n);
        } else if (color[std::size_t(n)] == 1) {
          auto it = std::find(path.begin(), path.end(), n);
          std::vector<int> cycle(it, path.end());
          cycle.push_back(n);
          return cycle;
        }
      } else {
        color[std::size_t(v)] = 2;
        path.pop_back();
      }
    }
  }
  return {};
}

std::string EventGraph::describe(int vertex) const {
  const Event& e = events_[std::size_t(slotOf(vertex))];
  const std::string& phase = plan_.phaseName(std::size_t(e.phase));
  std::string what;
  switch (e.kind) {
    case EventKind::kPhaseEntry:
      what = "phase '" + phase + "' begins";
      break;
    case EventKind::kPhaseExit:
      what = "phase '" + phase + "' ends";
      break;
    case EventKind::kWait: {
      const CounterExpectation& x = plan_.expectations[std::size_t(e.ref)];
      what = "wait '" + plan_.nameOf(x.site) + "' (ctr " +
             std::to_string(x.counterId) +
             ") in phase '" + phase + "'";
      break;
    }
    case EventKind::kFree: {
      const BufferPlan& b = plan_.buffers[std::size_t(e.ref)];
      what = "free of buffer '" + plan_.nameOf(b.name) + "' in phase '" +
             phase + "'";
      break;
    }
    case EventKind::kSend: {
      const PlannedWrite& w = plan_.writes[std::size_t(e.ref)];
      what = "send";
      if (w.pattern != net::kNoMulticast)
        what += " (pattern " + std::to_string(w.pattern) + ")";
      else if (w.dst.node >= 0)
        what += " to node " + std::to_string(w.dst.node);
      if (w.counterId != net::kNoCounter)
        what += " on ctr " + std::to_string(w.counterId);
      what += " in phase '" + phase + "'";
      break;
    }
  }
  return "node " + std::to_string(e.node) + ": " + what + " [round " +
         std::to_string(roundOf(vertex)) + "]";
}

}  // namespace anton::verify
