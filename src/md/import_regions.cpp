#include "md/import_regions.hpp"

#include <algorithm>
#include <stdexcept>

namespace anton::md {

namespace {

/// Half-shell: is the reduced offset lexicographically positive (z, y, x)?
bool lexPositive(const int d[3]) {
  if (d[2] != 0) return d[2] > 0;
  if (d[1] != 0) return d[1] > 0;
  return d[0] > 0;
}

/// NT: is the reduced xy offset in the half plate (1,0), (1,1), (0,1),
/// (-1,1)?
bool inHalfPlate(const int d[3]) {
  return d[1] == 1 || (d[1] == 0 && d[0] == 1);
}

/// The offset of coordinate `b` from `a` on one dimension, reduced to
/// {-1, 0, 1}, or 2 when they are more than one hop apart.
int offset(int a, int b, int extent) {
  if (extent == 1) return 0;
  const int w = util::wrap(b - a, extent);
  if (w == 0) return 0;
  if (w == 1) return 1;
  if (w == extent - 1) return -1;
  return 2;
}

}  // namespace

ImportRegions::ImportRegions(const util::TorusShape& shape, ImportMethod method)
    : shape_(shape), method_(method) {
  for (int dim = 0; dim < 3; ++dim) {
    if (shape_.extent(dim) == 2)
      throw std::invalid_argument(
          "torus extents of exactly 2 alias the +1 and -1 neighbors of the "
          "import rule; use 1 or >= 3");
  }
  const int n = shape_.size();
  struct Assigned {
    int a, b;
    bool byGid;
  };
  std::vector<std::vector<Assigned>> assigned(static_cast<std::size_t>(n));
  auto add = [&](int node, int a, int b, bool byGid) {
    assigned[std::size_t(node)].push_back({a, b, byGid});
  };
  // Every unordered pair of boxes within one hop per dimension, once: the
  // box itself, and each neighbor from its lower-indexed end.
  const int lo[3] = {shape_.nx == 1 ? 0 : -1, shape_.ny == 1 ? 0 : -1,
                     shape_.nz == 1 ? 0 : -1};
  for (int a = 0; a < n; ++a) {
    const util::TorusCoord c = util::torusCoordOf(a, shape_);
    for (int dx = lo[0]; dx <= -lo[0]; ++dx)
      for (int dy = lo[1]; dy <= -lo[1]; ++dy)
        for (int dz = lo[2]; dz <= -lo[2]; ++dz) {
          const int b = util::torusIndex({util::wrap(c.x + dx, shape_.nx),
                                          util::wrap(c.y + dy, shape_.ny),
                                          util::wrap(c.z + dz, shape_.nz)},
                                         shape_);
          if (b < a) continue;
          if (method_ == ImportMethod::kNeutralTerritory && dx == 0 &&
              dy == 0 && b != a) {
            add(a, a, b, true);  // same column: both ends, split per atom
            add(b, a, b, true);
          } else {
            add(computeNode(a, 0, b, 0), a, b, false);
          }
        }
  }

  sources_.assign(std::size_t(n), {});
  exportTo_.assign(std::size_t(n), {});
  pairs_.assign(std::size_t(n), {});
  for (int node = 0; node < n; ++node) {
    std::vector<int>& src = sources_[std::size_t(node)];
    for (const Assigned& p : assigned[std::size_t(node)]) {
      src.push_back(p.a);
      src.push_back(p.b);
    }
    std::sort(src.begin(), src.end());
    src.erase(std::unique(src.begin(), src.end()), src.end());
    src.erase(std::remove(src.begin(), src.end(), node), src.end());
    src.insert(src.begin(), node);
    for (std::size_t i = 1; i < src.size(); ++i)
      exportTo_[std::size_t(src[i])].push_back(node);

    auto index = [&](int box) {
      return int(std::find(src.begin(), src.end(), box) - src.begin());
    };
    std::vector<BoxPair>& out = pairs_[std::size_t(node)];
    for (const Assigned& p : assigned[std::size_t(node)]) {
      const int ia = index(p.a), ib = index(p.b);
      out.push_back({std::min(ia, ib), std::max(ia, ib), p.byGid});
    }
    std::sort(out.begin(), out.end(), [](const BoxPair& x, const BoxPair& y) {
      return x.s1 != y.s1 ? x.s1 < y.s1 : x.s2 < y.s2;
    });
  }
  // Importers are visited in ascending node order, so exportTo_ is sorted.
}

int ImportRegions::computeNode(int boxA, int gidA, int boxB, int gidB) const {
  const util::TorusCoord a = util::torusCoordOf(boxA, shape_);
  const util::TorusCoord b = util::torusCoordOf(boxB, shape_);
  int d[3];
  for (int dim = 0; dim < 3; ++dim) {
    d[dim] = offset(a[dim], b[dim], shape_.extent(dim));
    if (d[dim] == 2) return -1;
  }
  if (method_ == ImportMethod::kHalfShell) {
    if (d[0] == 0 && d[1] == 0 && d[2] == 0) return boxA;
    return lexPositive(d) ? boxB : boxA;
  }
  if (d[0] == 0 && d[1] == 0) return gidA > gidB ? boxA : boxB;
  return inHalfPlate(d) ? util::torusIndex({a.x, a.y, b.z}, shape_)
                        : util::torusIndex({b.x, b.y, a.z}, shape_);
}

}  // namespace anton::md
