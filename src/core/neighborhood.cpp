#include "core/neighborhood.hpp"

#include <algorithm>

namespace anton::core {

std::vector<int> torusNeighborhood26(const util::TorusShape& shape, int nodeIdx) {
  util::TorusCoord c = util::torusCoordOf(nodeIdx, shape);
  std::vector<int> out;
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dz = -1; dz <= 1; ++dz) {
        if (dx == 0 && dy == 0 && dz == 0) continue;
        util::TorusCoord n{util::wrap(c.x + dx, shape.nx),
                           util::wrap(c.y + dy, shape.ny),
                           util::wrap(c.z + dz, shape.nz)};
        int idx = util::torusIndex(n, shape);
        if (idx != nodeIdx) out.push_back(idx);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

NeighborhoodSync::NeighborhoodSync(net::Machine& machine,
                                   PatternAllocator& alloc, int counterId,
                                   int targetClient)
    : machine_(machine), counterId_(counterId), targetClient_(targetClient) {
  int n = machine.numNodes();
  neighbors_.reserve(std::size_t(n));
  patternIds_.reserve(std::size_t(n));
  for (int i = 0; i < n; ++i) {
    neighbors_.push_back(torusNeighborhood26(machine.shape(), i));
    std::vector<net::ClientAddr> dests;
    dests.reserve(neighbors_.back().size());
    for (int nb : neighbors_.back()) dests.push_back({nb, targetClient});
    // The flush must not overtake in-order FIFO migration traffic, so its
    // tree follows the exact deterministic X->Y->Z paths those packets use.
    MulticastTree tree = buildMulticastTree(machine, i, dests, {0, 1, 2});
    patternIds_.push_back(alloc.install(std::move(tree), std::move(dests)));
  }
}

void NeighborhoodSync::signal(int nodeIdx) {
  net::NetworkClient::SendArgs args;
  args.multicastPattern = patternIds_[std::size_t(nodeIdx)];
  args.counterId = counterId_;
  args.inOrder = true;
  machine_.client({nodeIdx, targetClient_}).post(args);
}

sim::Task NeighborhoodSync::signalAndCharge(int nodeIdx) {
  signal(nodeIdx);
  co_await machine_.sim().delay(machine_.latency().assembly());
}

}  // namespace anton::core
