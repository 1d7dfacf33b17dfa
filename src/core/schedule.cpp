#include "core/schedule.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace anton::core {

namespace {

/// Stable-sort `table` by node; returns each node's first index, then the
/// end.
template <typename T, typename NodeOf>
std::vector<std::uint32_t> groupByNode(std::vector<T>& table, int numNodes,
                                       NodeOf nodeOf) {
  std::stable_sort(table.begin(), table.end(), [&](const T& a, const T& b) {
    return nodeOf(a) < nodeOf(b);
  });
  table.shrink_to_fit();
  std::vector<std::uint32_t> first(std::size_t(numNodes) + 1, 0);
  for (const T& x : table) ++first[std::size_t(nodeOf(x)) + 1];
  std::partial_sum(first.begin(), first.end(), first.begin());
  return first;
}

}  // namespace

void CountedSchedule::addBuffer(verify::BufferPlan buffer,
                                std::uint8_t writePhase,
                                std::span<const int> writerNodes) {
  buffer.writers.begin = std::uint32_t(writers.size());
  for (int node : writerNodes) writers.push_back({node, writePhase});
  buffer.writers.end = std::uint32_t(writers.size());
  buffers.push_back(buffer);
}

void CountedSchedule::transpose(const net::Machine* machine) {
  firstSend_ = groupByNode(sends, numNodes, [](const verify::PlannedWrite& s) {
    return s.srcNode;
  });
  firstBuffer_ = groupByNode(buffers, numNodes,
                             [](const verify::BufferPlan& b) {
                               return b.client.node;
                             });
  writers.shrink_to_fit();
  // Every arrival once, as (receiving node * waits + wait, arrival), by
  // ascending source; then a counting sort groups them by (node, wait).
  std::vector<std::pair<std::uint32_t, Arrival>> reached;
  reached.reserve(sends.size());
  for (const verify::PlannedWrite& s : sends) {
    auto reach = [&](const net::ClientAddr& dst) {
      auto w = std::find_if(waits.begin(), waits.end(), [&](const Wait& x) {
        return x.client == dst.client && x.counterId == s.counterId;
      });
      if (w == waits.end())
        throw std::logic_error("scheduled send reaches no wait");
      reached.push_back({std::uint32_t(std::size_t(dst.node) * waits.size() +
                                       std::size_t(w - waits.begin())),
                         {s.srcNode, s.kinds, s.packets}});
    };
    if (s.counterId == net::kNoCounter) continue;
    if (s.pattern == net::kNoMulticast) {
      reach(s.dst);
      continue;
    }
    if (machine == nullptr)
      throw std::logic_error("scheduled multicast without a machine");
    const auto& receivers = machine->multicastReceivers(s.pattern, s.srcNode);
    if (receivers.empty())
      throw std::logic_error("scheduled multicast reaches no client");
    for (const net::ClientAddr& d : receivers) reach(d);
  }
  firstArrival_.assign(std::size_t(numNodes) * waits.size() + 1, 0);
  for (const auto& r : reached) ++firstArrival_[r.first + 1];
  std::partial_sum(firstArrival_.begin(), firstArrival_.end(),
                   firstArrival_.begin());
  arrivals_.resize(reached.size());
  std::vector<std::uint32_t> next(firstArrival_.begin(),
                                  firstArrival_.end() - 1);
  for (const auto& [at, a] : reached) arrivals_[next[at]++] = a;
  live.resize(std::size_t(numNodes) * waits.size());
}

bool CountedSchedule::started() const {
  return std::any_of(live.begin(), live.end(),
                     [](const WaitState& w) { return w.rounds > 0; });
}

void CountedSchedule::addRound(std::span<const Arrival> arrivals,
                               unsigned kinds, std::uint64_t& target,
                               std::vector<verify::SourceCount>* bySource,
                               std::size_t first) {
  for (const Arrival& a : arrivals) {
    if ((a.kinds & kinds) == 0) continue;
    target += a.packets;
    if (bySource) verify::addSource(*bySource, first, a.src, a.packets);
  }
}

CountedWait CountedSchedule::awaitRound(net::Machine& machine, int node,
                                        int wait, unsigned kinds,
                                        const RecoveryHooks& hooks,
                                        const std::vector<Arrival>* given) {
  WaitState& st = state(node, wait);
  ++st.rounds;
  addRound(given ? std::span<const Arrival>(*given) : arrivals(node, wait),
           kinds, st.target, hooks.armed() ? &st.bySource : nullptr);
  const Wait& w = waits[std::size_t(wait)];
  net::NetworkClient& client = machine.client({node, w.client});
  // Disarmed, the client's own counter poll: no coroutine frame between the
  // waiting program and the counter, timing identical to recovery-free code.
  if (!hooks.armed())
    return CountedWait(client.waitCounter(w.counterId, st.target));
  return CountedWait(
      recoverCounted(client, w.counterId, st.target, st.bySource, hooks));
}

void CountedSchedule::appendTo(verify::CommPlan& plan, int firstPhase,
                               int lastPhase, bool recoveryArmed) const {
  auto inRange = [&](int p) { return p >= firstPhase && p <= lastPhase; };
  // Schedule name index -> the plan's phase or name index, on first use.
  std::vector<int> phaseAt(names.size(), -1), nameAt(names.size(), -1);
  auto phase = [&](std::size_t i) {
    if (phaseAt[i] < 0) phaseAt[i] = plan.addPhase(names[i]);
    return std::uint16_t(phaseAt[i]);
  };
  auto name = [&](std::size_t i) {
    if (nameAt[i] < 0) nameAt[i] = plan.addName(names[i]);
    return std::uint16_t(nameAt[i]);
  };
  for (int n = 0; n < numNodes; ++n) {
    for (verify::PlannedWrite s : sendsOf(n))
      if (inRange(s.phase)) {
        s.phase = phase(s.phase);
        plan.writes.push_back(s);
      }
    for (const Site& site : sites) {
      const std::span<const Arrival> a = arrivals(n, site.wait);
      if (!inRange(site.phase) || (a.empty() && !site.keepUnreached)) continue;
      const Wait& w = waits[site.wait];
      const std::size_t first = plan.sources.size();
      verify::CounterExpectation e{
          .site = name(site.name), .phase = phase(site.phase),
          .client = {n, w.client}, .counterId = w.counterId, .perRound = 0,
          .bySource = {}, .recoveryArmed = recoveryArmed, .seq = site.seq};
      addRound(a, site.kinds, e.perRound, &plan.sources, first);
      e.bySource = {std::uint32_t(first), std::uint32_t(plan.sources.size())};
      plan.expectations.push_back(e);
    }
    for (verify::BufferPlan b :
         range(buffers, firstBuffer_, std::size_t(n))) {
      if (!inRange(b.freePhase)) continue;
      const auto first = std::uint32_t(plan.writers.size());
      for (std::uint32_t i = b.writers.begin; i < b.writers.end; ++i)
        plan.writers.push_back({writers[i].node, phase(writers[i].phase)});
      b.name = name(b.name);
      b.freePhase = phase(b.freePhase);
      b.writers = {first, std::uint32_t(plan.writers.size())};
      plan.buffers.push_back(b);
    }
  }
}

}  // namespace anton::core
