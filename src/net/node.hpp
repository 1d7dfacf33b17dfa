// One Anton node: seven network clients on a six-router on-chip ring, six
// link adapters to torus neighbors, and a 256-entry multicast lookup table
// (SC10 §III-A, Fig. 1).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "net/client.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"
#include "util/torus_coord.hpp"

namespace anton::net {

inline constexpr int kMulticastPatterns = 256;

/// One precomputed multicast fan-out at a node: the set of local clients to
/// deliver to and the set of outgoing links to forward on.
struct MulticastEntry {
  std::uint8_t clientMask = 0;  ///< bit i => deliver to local client i
  std::uint8_t linkMask = 0;    ///< bit adapterIndex(dim,sign) => forward
  bool empty() const { return clientMask == 0 && linkMask == 0; }
};

class Machine;

class Node {
 public:
  /// `mem` is this node's slice of the machine's client-memory mapping,
  /// split evenly among its kClientsPerNode clients.
  Node(Machine& machine, int index, util::TorusCoord coord,
       std::span<std::byte> mem, int countersPerClient);

  int index() const { return index_; }
  util::TorusCoord coord() const { return coord_; }

  NetworkClient& client(int id) { return *clients_.at(std::size_t(id)); }
  const NetworkClient& client(int id) const { return *clients_.at(std::size_t(id)); }
  ProcessingSlice& slice(int s);
  Htis& htis();
  AccumulationMemory& accum(int which);

  const MulticastEntry& multicast(int pattern) const {
    return multicast_.at(std::size_t(pattern));
  }
  void setMulticast(int pattern, MulticastEntry e) {
    multicast_.at(std::size_t(pattern)) = e;
  }

  /// Reserve the shared on-chip ring for `bytes` (a wire size, at most
  /// HopDelays::kMaxWireBytes) starting no earlier than `t`; returns the
  /// actual start time (>= t) and advances the busy window.
  sim::Time reserveRing(sim::Time t, std::size_t bytes);

  sim::Time ringBusyUntil() const { return ringBusyUntil_; }

 private:
  Machine& machine_;
  int index_;
  util::TorusCoord coord_;
  sim::Time ringBusyUntil_ = 0;  ///< beside clients_: deliveries touch both
  std::array<std::unique_ptr<NetworkClient>, kClientsPerNode> clients_;
  std::array<MulticastEntry, kMulticastPatterns> multicast_{};
};

}  // namespace anton::net
