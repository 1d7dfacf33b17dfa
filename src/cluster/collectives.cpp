#include "cluster/collectives.hpp"

#include <bit>
#include <stdexcept>

#include "core/schedule.hpp"

namespace anton::cluster {

namespace {

/// Extra software time charged per all-reduce round, calibrated so the
/// 512-node 32-byte all-reduce lands near the 35.5 us the paper measured
/// on its DDR2 InfiniBand cluster (§IV-B4).
constexpr double kPerRoundOverheadUs = 1.6;

}  // namespace

sim::Task allReduce(ClusterMachine& m, int node, std::vector<double> in,
                    std::vector<double>* out, int tagBase) {
  const int n = m.numNodes();
  if (!std::has_single_bit(unsigned(n)))
    throw std::invalid_argument("recursive doubling needs power-of-two nodes");

  std::vector<double> cur = std::move(in);
  const std::size_t bytes = cur.size() * sizeof(double) + 64;  // MPI envelope
  const int rounds = std::bit_width(unsigned(n)) - 1;
  for (int r = 0; r < rounds; ++r) {
    int partner = node ^ (1 << r);
    auto payload = std::make_shared<const std::vector<double>>(cur);
    co_await m.send(node, partner, tagBase + r, bytes, payload);
    ClusterMachine::Message msg = co_await m.recv(node, partner, tagBase + r);
    if (msg.data) {
      const std::vector<double>& theirs = *msg.data;
      bool mineFirst = ((node >> r) & 1) == 0;
      for (std::size_t w = 0; w < cur.size() && w < theirs.size(); ++w)
        cur[w] = mineFirst ? cur[w] + theirs[w] : theirs[w] + cur[w];
    }
    co_await m.sim().delay(sim::us(kPerRoundOverheadUs));
  }
  if (out != nullptr) *out = std::move(cur);
}

std::string appendAllReducePlan(verify::CommPlan& plan, int numNodes,
                                const std::string& afterPhase, int tagBase) {
  if (!std::has_single_bit(unsigned(numNodes)))
    throw std::invalid_argument("recursive doubling needs power-of-two nodes");
  plan.shape = {numNodes, 1, 1};
  const int rounds = std::bit_width(unsigned(numNodes)) - 1;
  core::CountedSchedule schedule;
  schedule.numNodes = numNodes;
  for (int r = 0; r < rounds; ++r) {
    const auto phase = std::uint8_t(r);
    schedule.names.push_back("cluster.allreduce.round" + std::to_string(r));
    schedule.waits.push_back({0, tagBase + r});
    // allReduce() sends to the partner before posting the recv.
    schedule.sites.push_back({phase, phase, phase, 1, 1});
    for (int node = 0; node < numNodes; ++node)
      schedule.sends.push_back({.srcNode = node, .phase = phase, .seq = 0,
                                .counterId = tagBase + r,
                                .dst = {node ^ (1 << r), 0}});
  }
  schedule.transpose();
  std::string prev = afterPhase;
  for (int r = 0; r < rounds; ++r) {
    plan.addPhaseEdge(prev, schedule.names[std::size_t(r)]);
    prev = schedule.names[std::size_t(r)];
    // Reliable transport (MPI semantics): every wait counts as
    // recovery-armed.
    schedule.appendTo(plan, r, r, true);
  }
  return prev;
}

sim::Task stagedNeighborExchange(ClusterMachine& m, util::TorusShape shape,
                                 int node, std::size_t bytesOwn,
                                 std::size_t* outBytes, int tagBase) {
  if (shape.size() > m.numNodes())
    throw std::invalid_argument("logical torus larger than cluster");
  util::TorusCoord c = util::torusCoordOf(node, shape);

  std::size_t accumulated = bytesOwn;  // own slab, grows as stages forward data
  std::size_t received = 0;
  for (int d = 0; d < 3; ++d) {
    if (shape.extent(d) < 2) continue;
    int up = util::torusIndex(util::torusNeighbor(c, d, +1, shape), shape);
    int dn = util::torusIndex(util::torusNeighbor(c, d, -1, shape), shape);
    int tagUp = tagBase + d * 2;
    int tagDn = tagBase + d * 2 + 1;
    // Two sends per stage (Fig. 8a): the accumulated slab goes both ways.
    co_await m.send(node, up, tagUp, accumulated);
    co_await m.send(node, dn, tagDn, accumulated);
    ClusterMachine::Message a = co_await m.recv(node, dn, tagUp);
    ClusterMachine::Message b = co_await m.recv(node, up, tagDn);
    received += a.bytes + b.bytes;
    accumulated += a.bytes + b.bytes;
  }
  if (outBytes != nullptr) *outBytes = received;
}

sim::Task allToAll(ClusterMachine& m, std::vector<int> group,
                   int selfIndex, std::size_t bytesPerPair, int tagBase) {
  const int k = int(group.size());
  const int self = group[std::size_t(selfIndex)];
  for (int i = 1; i < k; ++i) {
    int peer = group[std::size_t((selfIndex + i) % k)];
    co_await m.send(self, peer, tagBase + self, bytesPerPair);
  }
  for (int i = 1; i < k; ++i) {
    int peer = group[std::size_t((selfIndex + i) % k)];
    co_await m.recv(self, peer, tagBase + peer);
  }
}

}  // namespace anton::cluster
