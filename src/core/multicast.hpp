// Multicast tree construction and pattern-id management.
//
// Anton's network forwards a multicast packet according to per-node lookup
// tables (up to 256 precomputed patterns per node, SC10 §III-A). This module
// turns a logical fan-out — one source client, a set of destination clients —
// into the per-node MulticastEntry tables of a dimension-ordered spanning
// tree, and allocates pattern ids so that trees whose footprints overlap
// never share an id (two sources may reuse an id iff no node appears in both
// trees, exactly as the real tables allow).
#pragma once

#include <bitset>
#include <utility>
#include <vector>

#include "net/machine.hpp"

namespace anton::core {

/// The per-node table entries of one multicast tree, before installation.
struct MulticastTree {
  int srcNode = 0;
  /// (node index, entry) by ascending node: a flat table, small and cheap
  /// for the thousands of trees a large machine installs.
  std::vector<std::pair<int, net::MulticastEntry>> entries;

  /// The entry of `node`, added empty when the tree does not touch it yet.
  net::MulticastEntry& entry(int node);
  /// The entry of `node`; throws std::out_of_range when the tree does not
  /// touch it.
  const net::MulticastEntry& at(int node) const;
};

/// Build the dimension-ordered spanning tree for a fan-out from `srcNode` to
/// `dests`. Destinations on the source node are delivered locally; the
/// source client itself is not a destination unless listed. `dimOrder`
/// selects the traversal order: rotating it across sources balances the
/// final-dimension tree legs over all six link directions (with a single
/// global order, every tree's corner legs pile onto the last dimension's
/// links).
MulticastTree buildMulticastTree(const net::Machine& m, int srcNode,
                                 const std::vector<net::ClientAddr>& dests,
                                 std::array<int, 3> dimOrder = {0, 1, 2});

/// One pattern as installed: its id, the tree written into the node tables,
/// and the destination set the caller declared, independently of the tree.
/// Copied into the static plan (src/verify/), which checks the one against
/// the other.
struct InstalledPattern {
  int id = -1;
  MulticastTree tree;
  std::vector<net::ClientAddr> dests;
};

/// Allocates pattern ids and installs trees into a machine's node tables.
/// Ids are assigned greedily: the smallest id unused on every footprint node
/// of the new tree. Throws when the 256-entry tables are exhausted.
class PatternAllocator {
 public:
  /// Manage ids in [firstId, lastId] (inclusive).
  explicit PatternAllocator(net::Machine& m, int firstId = 0,
                            int lastId = net::kMulticastPatterns - 1);

  /// Install a fan-out; returns the allocated pattern id.
  int install(int srcNode, const std::vector<net::ClientAddr>& dests);

  /// Install a prebuilt tree meant to reach `dests`; returns the allocated
  /// pattern id.
  int install(MulticastTree tree, std::vector<net::ClientAddr> dests);

  /// Every pattern installed through this allocator, in install order.
  const std::vector<InstalledPattern>& installed() const { return installed_; }

 private:
  net::Machine& machine_;
  int firstId_;
  int lastId_;
  /// node -> ids taken
  std::vector<std::bitset<net::kMulticastPatterns>> usedIdsPerNode_;
  std::vector<InstalledPattern> installed_;
};

}  // namespace anton::core
