#include "core/multicast.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/torus_coord.hpp"

namespace anton::core {

using net::MulticastEntry;
using net::RingLayout;
using util::TorusCoord;

net::MulticastEntry& MulticastTree::entry(int node) {
  auto it = std::lower_bound(
      entries.begin(), entries.end(), node,
      [](const std::pair<int, net::MulticastEntry>& e, int n) {
        return e.first < n;
      });
  if (it == entries.end() || it->first != node)
    it = entries.insert(it, {node, net::MulticastEntry{}});
  return it->second;
}

const net::MulticastEntry& MulticastTree::at(int node) const {
  for (const auto& [n, e] : entries)
    if (n == node) return e;
  throw std::out_of_range("node not in multicast tree");
}

MulticastTree buildMulticastTree(const net::Machine& m, int srcNode,
                                 const std::vector<net::ClientAddr>& dests,
                                 std::array<int, 3> dimOrder) {
  if (dests.empty())
    throw std::invalid_argument("multicast tree needs at least one destination");
  MulticastTree tree;
  tree.srcNode = srcNode;
  const util::TorusShape& shape = m.shape();

  for (const net::ClientAddr& d : dests) {
    if (d.client < 0 || d.client >= net::kClientsPerNode)
      throw std::out_of_range("bad destination client id");
    // Walk the dimension-ordered shortest path, marking forward links; the
    // union over destinations forms the spanning tree, because every
    // destination shares the deterministic path prefix from the source.
    TorusCoord cur = util::torusCoordOf(srcNode, shape);
    TorusCoord dst = util::torusCoordOf(d.node, shape);
    int curIdx = srcNode;
    for (int dim : dimOrder) {
      int delta = util::signedTorusDelta(cur[dim], dst[dim], shape.extent(dim));
      int sign = delta > 0 ? +1 : -1;
      for (int step = 0; step < std::abs(delta); ++step) {
        tree.entry(curIdx).linkMask |=
            std::uint8_t(1u << RingLayout::adapterIndex(dim, sign));
        cur = util::torusNeighbor(cur, dim, sign, shape);
        curIdx = util::torusIndex(cur, shape);
      }
    }
    tree.entry(curIdx).clientMask |= std::uint8_t(1u << d.client);
  }
  return tree;
}

PatternAllocator::PatternAllocator(net::Machine& m, int firstId, int lastId)
    : machine_(m),
      firstId_(firstId),
      lastId_(lastId),
      usedIdsPerNode_(std::size_t(m.numNodes())) {
  if (firstId < 0 || lastId >= net::kMulticastPatterns || firstId > lastId)
    throw std::invalid_argument("bad pattern id range");
}

int PatternAllocator::install(int srcNode,
                              const std::vector<net::ClientAddr>& dests) {
  // Rotate the tree's dimension order by source so that simultaneous
  // broadcasts from neighboring sources spread their legs over all links.
  static constexpr std::array<std::array<int, 3>, 6> kPerms = {{
      {0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {0, 2, 1}, {2, 1, 0}, {1, 0, 2}}};
  return install(buildMulticastTree(machine_, srcNode, dests,
                                    kPerms[std::size_t(srcNode) % 6]),
                 dests);
}

int PatternAllocator::install(MulticastTree tree,
                              std::vector<net::ClientAddr> dests) {
  for (int id = firstId_; id <= lastId_; ++id) {
    bool free = true;
    for (const auto& [node, entry] : tree.entries) {
      if (usedIdsPerNode_[std::size_t(node)].test(std::size_t(id))) {
        free = false;
        break;
      }
    }
    if (!free) continue;
    for (const auto& [node, entry] : tree.entries) {
      machine_.setMulticastPattern(node, id, entry);
      usedIdsPerNode_[std::size_t(node)].set(std::size_t(id));
    }
    installed_.push_back({id, std::move(tree), std::move(dests)});
    return id;
  }
  throw std::runtime_error("multicast pattern tables exhausted");
}

}  // namespace anton::core
