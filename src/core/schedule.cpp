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

void CountedSchedule::addBuffer(ScheduledBuffer buffer,
                                std::span<const int> bufferWriters) {
  buffer.firstWriter = std::uint32_t(writers.size());
  buffer.numWriters = std::uint32_t(bufferWriters.size());
  writers.insert(writers.end(), bufferWriters.begin(), bufferWriters.end());
  buffers.push_back(buffer);
}

void CountedSchedule::transpose(const net::Machine* machine) {
  firstSend_ = groupByNode(sends, numNodes,
                           [](const ScheduledSend& s) { return s.node; });
  firstBuffer_ = groupByNode(buffers, numNodes, [](const ScheduledBuffer& b) {
    return b.client.node;
  });
  writers.shrink_to_fit();
  // Visit every arrival as (receiving node * waits + wait, send), by
  // ascending source.
  auto visit = [&](auto&& arrive) {
    for (const ScheduledSend& s : sends) {
      auto reach = [&](const net::ClientAddr& dst) {
        auto w = std::find_if(waits.begin(), waits.end(), [&](const Wait& x) {
          return x.client == dst.client && x.counterId == s.counterId;
        });
        if (w == waits.end())
          throw std::logic_error("scheduled send reaches no wait");
        arrive(std::size_t(dst.node) * waits.size() +
                   std::size_t(w - waits.begin()), s);
      };
      if (s.counterId == net::kNoCounter) continue;
      if (s.pattern == net::kNoMulticast) {
        reach(s.dst);
        continue;
      }
      if (machine == nullptr)
        throw std::logic_error("scheduled multicast without a machine");
      const auto& receivers = machine->multicastReceivers(s.pattern, s.node);
      if (receivers.empty())
        throw std::logic_error("scheduled multicast reaches no client");
      for (const net::ClientAddr& d : receivers) reach(d);
    }
  };
  // Count, then fill: one array, grouped by (node, wait).
  firstArrival_.assign(std::size_t(numNodes) * waits.size() + 1, 0);
  visit([&](std::size_t at, const ScheduledSend&) { ++firstArrival_[at + 1]; });
  std::partial_sum(firstArrival_.begin(), firstArrival_.end(),
                   firstArrival_.begin());
  arrivals_.assign(firstArrival_.back(), {});
  std::vector<std::uint32_t> next(firstArrival_.begin(),
                                  firstArrival_.end() - 1);
  visit([&](std::size_t at, const ScheduledSend& s) {
    arrivals_[next[at]++] = {s.node, s.kinds, s.packets};
  });
  live.resize(std::size_t(numNodes) * waits.size());
}

bool CountedSchedule::started() const {
  return std::any_of(live.begin(), live.end(),
                     [](const WaitState& w) { return w.rounds > 0; });
}

void CountedSchedule::addRound(std::span<const Arrival> arrivals,
                               unsigned kinds, std::uint64_t& target,
                               std::map<int, std::uint64_t>* bySource) {
  for (const Arrival& a : arrivals) {
    if ((a.kinds & kinds) == 0) continue;
    target += a.packets;
    if (bySource) (*bySource)[a.src] += a.packets;
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
  for (int n = 0; n < numNodes; ++n) {
    for (const ScheduledSend& s : sendsOf(n))
      if (inRange(s.phase))
        plan.writes.push_back({.phase = names[s.phase], .srcNode = n,
                               .dst = s.dst, .pattern = s.pattern,
                               .counterId = s.counterId, .packets = s.packets,
                               .inOrder = s.inOrder, .fifo = s.fifo,
                               .seq = s.seq});
    for (const Site& site : sites) {
      const std::span<const Arrival> a = arrivals(n, site.wait);
      if (!inRange(site.phase) || (a.empty() && !site.keepUnreached)) continue;
      const Wait& w = waits[site.wait];
      verify::CounterExpectation& e = plan.expectations.emplace_back(
          verify::CounterExpectation{
              .site = names[site.name], .phase = names[site.phase],
              .client = {n, w.client}, .counterId = w.counterId,
              .perRound = 0, .bySource = {}, .recoveryArmed = recoveryArmed,
              .seq = site.seq});
      addRound(a, site.kinds, e.perRound, &e.bySource);
    }
    for (const ScheduledBuffer& b :
         range(buffers, firstBuffer_, std::size_t(n))) {
      if (!inRange(b.freePhase)) continue;
      verify::BufferPlan& out = plan.buffers.emplace_back(verify::BufferPlan{
          .name = names[b.name], .client = b.client, .base = b.base,
          .bytes = b.bytes, .copies = b.copies,
          .freePhase = names[b.freePhase], .writers = {}});
      for (std::uint32_t i = 0; i < b.numWriters; ++i)
        out.writers.push_back(
            {writers[b.firstWriter + i], names[b.writePhase]});
    }
  }
}

}  // namespace anton::core
