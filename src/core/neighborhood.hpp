// 26-neighbor synchronization: the migration-flush idiom of SC10 §IV-B5.
//
// Migration traffic is stochastic, so it flows through the hardware message
// FIFOs and cannot be counted in advance. After a node has sent all of its
// migration messages, it multicasts a single in-order counted remote write
// to its 26 nearest neighbors; the in-order delivery guarantee ensures the
// flush cannot overtake the migration messages, so once a node's flush
// counter reaches its neighbor count, every inbound migration message has
// been delivered. The wait on that counter is a wait of the caller's
// counted-traffic schedule (core/schedule.hpp): the MD step's flush wait.
#pragma once

#include <vector>

#include "core/multicast.hpp"
#include "net/machine.hpp"
#include "sim/task.hpp"

namespace anton::core {

class NeighborhoodSync {
 public:
  /// `counterId` is the flush counter on `targetClient` of every node;
  /// patterns are taken from `alloc`.
  NeighborhoodSync(net::Machine& machine, PatternAllocator& alloc,
                   int counterId, int targetClient = net::kSlice0);

  /// Distinct nodes in the 3x3x3 neighborhood of `nodeIdx` (excluding
  /// itself); in small tori, wrapped duplicates are collapsed.
  const std::vector<int>& neighbors(int nodeIdx) const {
    return neighbors_[std::size_t(nodeIdx)];
  }

  /// Fire-and-forget: multicast this node's flush to all neighbors
  /// (in-order, so it cannot overtake previously sent FIFO traffic).
  void signal(int nodeIdx);

  /// Coroutine form charging the assembly time to the caller.
  sim::Task signalAndCharge(int nodeIdx);

  /// The multicast pattern id `nodeIdx`'s flush broadcast uses (installed
  /// through the shared allocator). Exposed for static plan extraction.
  int patternId(int nodeIdx) const { return patternIds_[std::size_t(nodeIdx)]; }

  int counterId() const { return counterId_; }
  int targetClient() const { return targetClient_; }

 private:
  net::Machine& machine_;
  int counterId_;
  int targetClient_;
  std::vector<std::vector<int>> neighbors_;
  std::vector<int> patternIds_;
};

/// Helper shared with the MD layer: the distinct torus nodes in the 3^3 - 1
/// neighborhood of `nodeIdx`.
std::vector<int> torusNeighborhood26(const util::TorusShape& shape, int nodeIdx);

}  // namespace anton::core
