#include "verify/events.hpp"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <tuple>

namespace anton::verify {
namespace {

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

std::vector<std::vector<net::ClientAddr>> deliveredTargets(
    const CommPlan& plan) {
  const std::vector<int> trees = writeTrees(plan);
  std::map<int, TreeExpansion> expansions;
  std::vector<std::vector<net::ClientAddr>> delivered(plan.writes.size());
  for (std::size_t wi = 0; wi < plan.writes.size(); ++wi) {
    const PlannedWrite& w = plan.writes[wi];
    if (w.pattern == net::kNoMulticast) {
      if (w.dst.node >= 0) delivered[wi].push_back(w.dst);
      continue;
    }
    if (trees[wi] < 0) continue;
    auto [ei, fresh] = expansions.try_emplace(trees[wi]);
    if (fresh)
      ei->second = expandTree(plan.multicasts[std::size_t(trees[wi])],
                              plan.shape);
    delivered[wi] = ei->second.reached;
  }
  return delivered;
}

EventGraph::EventGraph(
    const CommPlan& plan, int rounds,
    const std::vector<std::vector<net::ClientAddr>>& delivered)
    : plan_(plan),
      rounds_(std::max(rounds, 1)),
      numPhases_(int(plan.phases.size())),
      numNodes_(plan.shape.size()) {
  buildSlots(plan);
  buildEdges(plan, delivered);
}

void EventGraph::buildSlots(const CommPlan& plan) {
  const int P = numPhases_;
  const int N = numNodes_;
  struct Item {
    int seq;
    int rank;
    int order;  ///< insertion order, for a stable tie-break
    Event ev;
  };
  std::vector<std::vector<Item>> groups(std::size_t(N) * std::size_t(P));
  auto groupOf = [&](int node, int phaseIdx) -> std::vector<Item>* {
    if (node < 0 || node >= N || phaseIdx < 0 || phaseIdx >= P) return nullptr;
    return &groups[std::size_t(node) * std::size_t(P) + std::size_t(phaseIdx)];
  };

  waitSlot_.assign(plan.expectations.size(), -1);
  sendSlot_.assign(plan.writes.size(), -1);
  freeSlot_.assign(plan.buffers.size(), -1);

  // The free event of a buffer fires when the freePhase's waits are done:
  // it sorts after the last wait of its (node, phase) group.
  std::map<std::pair<int, int>, int> maxWaitSeq;
  int order = 0;
  for (std::size_t ei = 0; ei < plan.expectations.size(); ++ei) {
    const CounterExpectation& e = plan.expectations[ei];
    int p = plan.phaseIndex(e.phase);
    std::vector<Item>* g = groupOf(e.client.node, p);
    if (g == nullptr) continue;
    g->push_back({e.seq, kindRank(EventKind::kWait), order++,
                  {EventKind::kWait, e.client.node, p, int(ei)}});
    auto [it, fresh] = maxWaitSeq.emplace(std::pair{e.client.node, p}, e.seq);
    if (!fresh) it->second = std::max(it->second, e.seq);
  }
  for (std::size_t bi = 0; bi < plan.buffers.size(); ++bi) {
    const BufferPlan& b = plan.buffers[bi];
    int p = plan.phaseIndex(b.freePhase);
    std::vector<Item>* g = groupOf(b.client.node, p);
    if (g == nullptr) continue;
    auto it = maxWaitSeq.find({b.client.node, p});
    int seq = it == maxWaitSeq.end() ? 0 : it->second;
    g->push_back({seq, kindRank(EventKind::kFree), order++,
                  {EventKind::kFree, b.client.node, p, int(bi)}});
  }
  for (std::size_t wi = 0; wi < plan.writes.size(); ++wi) {
    const PlannedWrite& w = plan.writes[wi];
    int p = plan.phaseIndex(w.phase);
    std::vector<Item>* g = groupOf(w.srcNode, p);
    if (g == nullptr) continue;
    g->push_back({w.seq, kindRank(EventKind::kSend), order++,
                  {EventKind::kSend, w.srcNode, p, int(wi)}});
  }

  groupStart_.assign(std::size_t(N) * std::size_t(P) + 1, 0);
  events_.clear();
  for (int n = 0; n < N; ++n)
    for (int p = 0; p < P; ++p) {
      std::size_t np = std::size_t(n) * std::size_t(P) + std::size_t(p);
      groupStart_[np] = int(events_.size());
      events_.push_back({EventKind::kPhaseEntry, n, p, -1});
      std::vector<Item>& g = groups[np];
      std::sort(g.begin(), g.end(), [](const Item& a, const Item& b) {
        return std::tie(a.seq, a.rank, a.order) <
               std::tie(b.seq, b.rank, b.order);
      });
      for (const Item& it : g) {
        int slot = int(events_.size());
        events_.push_back(it.ev);
        switch (it.ev.kind) {
          case EventKind::kWait:
            waitSlot_[std::size_t(it.ev.ref)] = slot;
            break;
          case EventKind::kFree:
            freeSlot_[std::size_t(it.ev.ref)] = slot;
            break;
          case EventKind::kSend:
          case EventKind::kPhaseEntry:  // anchors never enter the groups
          case EventKind::kPhaseExit:
            sendSlot_[std::size_t(it.ev.ref)] = slot;
            break;
        }
      }
      events_.push_back({EventKind::kPhaseExit, n, p, -1});
    }
  groupStart_[std::size_t(N) * std::size_t(P)] = int(events_.size());
}

void EventGraph::buildEdges(
    const CommPlan& plan,
    const std::vector<std::vector<net::ClientAddr>>& delivered) {
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

  // Delivery targets of each counted send: the precedence-minimal matching
  // wait phases not strictly before the send (same round), or — when every
  // matching wait is strictly before it — the next round's minimal waits.
  std::map<std::tuple<int, int, int>, std::vector<int>> waitsFor;
  for (std::size_t ei = 0; ei < plan.expectations.size(); ++ei) {
    if (waitSlot_[ei] < 0) continue;
    const CounterExpectation& e = plan.expectations[ei];
    waitsFor[{e.client.node, e.client.client, e.counterId}].push_back(int(ei));
  }
  struct Target {
    int waitSlot;
    bool nextRound;
  };
  std::vector<std::vector<Target>> targets(plan.writes.size());
  for (std::size_t wi = 0; wi < plan.writes.size(); ++wi) {
    const PlannedWrite& w = plan.writes[wi];
    if (sendSlot_[wi] < 0 || w.counterId == net::kNoCounter) continue;
    int wp = plan.phaseIndex(w.phase);
    for (const net::ClientAddr& d : delivered[wi]) {
      auto it = waitsFor.find({d.node, d.client, w.counterId});
      if (it == waitsFor.end()) continue;
      std::vector<int> eligible;
      for (int ei : it->second) {
        int ep = plan.phaseIndex(plan.expectations[std::size_t(ei)].phase);
        if (!before(ep, wp)) eligible.push_back(ei);
      }
      bool nextRound = eligible.empty();
      const std::vector<int>& pool = nextRound ? it->second : eligible;
      for (int ei : pool) {
        int ep = plan.phaseIndex(plan.expectations[std::size_t(ei)].phase);
        bool minimal = true;
        for (int oi : pool) {
          if (oi == ei) continue;
          int op = plan.phaseIndex(plan.expectations[std::size_t(oi)].phase);
          if (before(op, ep)) {
            minimal = false;
            break;
          }
        }
        if (minimal)
          targets[wi].push_back({waitSlot_[std::size_t(ei)], nextRound});
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
    for (std::size_t wi = 0; wi < targets.size(); ++wi)
      for (const Target& t : targets[wi])
        for (int r = 0; r < R; ++r) {
          int tr = r + (t.nextRound ? 1 : 0);
          if (tr >= R) continue;
          emit(vertex(sendSlot_[wi], r), vertex(t.waitSlot, tr));
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
  const std::string phase = e.phase >= 0 && e.phase < numPhases_
                                ? plan_.phases[std::size_t(e.phase)]
                                : "?";
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
      what = "wait '" + x.site + "' (ctr " + std::to_string(x.counterId) +
             ") in phase '" + phase + "'";
      break;
    }
    case EventKind::kFree: {
      const BufferPlan& b = plan_.buffers[std::size_t(e.ref)];
      what = "free of buffer '" + b.name + "' in phase '" + phase + "'";
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
