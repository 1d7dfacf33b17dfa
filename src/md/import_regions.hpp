// Range-limited import regions (SC10 §IV-B1): which node computes each pair
// of atoms, and therefore whose positions every node's HTIS imports and to
// whom it returns forces.
//
// One rule per method decides the computing node of a pair of home boxes
// that lie within one hop of each other in every dimension (the constructor
// of AntonMdApp guarantees cutoff + 2·margin <= box side, so no in-range
// pair is farther apart):
//
//   * Neutral territory (NT, the paper's method, its ref. [28]). Node N
//     imports its *tower* (z ± 1) and its *half plate* (xy offsets (1,0),
//     (1,1), (0,1), (-1,1) at N's z). Boxes A and B pair on
//     (A.x, A.y, B.z) when the xy part of B − A is in the half plate, and on
//     (B.x, B.y, A.z) when it is in the opposite half. Same-column pairs
//     (equal x and y) go to the home of the higher-gid atom — the only case
//     decided per atom rather than per box.
//   * Half shell (the ablation). Node N imports the 13 neighbors at a
//     lexicographically negative offset; the pair of A and B is computed on
//     whichever box sees the other at such an offset.
//
// Offsets are reduced to 0 on extent-1 dimensions before classification (a
// neighbor across such a dimension is the box itself); extents of exactly 2
// alias the +1 and -1 neighbors and are rejected.
#pragma once

#include <span>
#include <vector>

#include "util/torus_coord.hpp"

namespace anton::md {

enum class ImportMethod {
  kNeutralTerritory,  ///< tower + half plate, pairs on the NT node
  kHalfShell,         ///< 13 lexicographically positive neighbors
};

class ImportRegions {
 public:
  /// One pair of source boxes a node computes; `s1 <= s2` index sources().
  /// `byGid` marks a same-column pair, computed only for the atom pairs
  /// whose higher gid lives in the node's own box (source 0).
  struct BoxPair {
    int s1 = 0;
    int s2 = 0;
    bool byGid = false;
  };

  ImportRegions() = default;
  /// Throws std::invalid_argument for a torus extent of exactly 2.
  ImportRegions(const util::TorusShape& shape, ImportMethod method);

  /// The node computing the pair of atom `gidA` (home box `boxA`) and atom
  /// `gidB` (home box `boxB`); symmetric in its two (box, gid) arguments.
  /// -1 when the boxes are more than one hop apart in some dimension.
  int computeNode(int boxA, int gidA, int boxB, int gidB) const;

  /// Boxes whose positions `node` reads: its own first, then its imports
  /// in ascending node order.
  const std::vector<int>& sources(int node) const {
    return sources_[std::size_t(node)];
  }
  std::span<const int> importFrom(int node) const {
    return std::span<const int>(sources(node)).subspan(1);
  }
  /// Nodes importing `node`'s box, ascending (the position multicast's
  /// destinations besides `node` itself, and its force-return sources).
  const std::vector<int>& exportTo(int node) const {
    return exportTo_[std::size_t(node)];
  }
  /// The box pairs `node` computes, ordered by (s1, s2).
  const std::vector<BoxPair>& pairs(int node) const {
    return pairs_[std::size_t(node)];
  }

 private:
  util::TorusShape shape_;
  ImportMethod method_ = ImportMethod::kNeutralTerritory;
  std::vector<std::vector<int>> sources_;
  std::vector<std::vector<int>> exportTo_;
  std::vector<std::vector<BoxPair>> pairs_;
};

}  // namespace anton::md
