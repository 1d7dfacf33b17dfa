#include "net/node.hpp"

#include <algorithm>

#include "net/machine.hpp"

namespace anton::net {

Node::Node(Machine& machine, int index, util::TorusCoord coord,
           std::span<std::byte> mem, int countersPerClient)
    : machine_(machine), index_(index), coord_(coord) {
  const std::size_t perClient = mem.size() / kClientsPerNode;
  for (int c = 0; c < kClientsPerNode; ++c) {
    ClientAddr a{index, c};
    std::span<std::byte> cm = mem.subspan(std::size_t(c) * perClient, perClient);
    std::unique_ptr<NetworkClient> client;
    if (c < kNumSlices) {
      client = std::make_unique<ProcessingSlice>(machine, a, cm,
                                                 countersPerClient);
    } else if (c == kHtis) {
      client = std::make_unique<Htis>(machine, a, cm, countersPerClient);
    } else {
      client = std::make_unique<AccumulationMemory>(machine, a, cm,
                                                    countersPerClient);
    }
    clients_[std::size_t(c)] = std::move(client);
  }
}

ProcessingSlice& Node::slice(int s) {
  return static_cast<ProcessingSlice&>(client(s));
}

Htis& Node::htis() { return static_cast<Htis&>(client(kHtis)); }

AccumulationMemory& Node::accum(int which) {
  return static_cast<AccumulationMemory&>(client(kAccum0 + which));
}

sim::Time Node::reserveRing(sim::Time t, std::size_t bytes) {
  sim::Time start = std::max(t, ringBusyUntil_);
  ringBusyUntil_ = start + machine_.delays().ringOccupancy[bytes];
  return start;
}

}  // namespace anton::net
