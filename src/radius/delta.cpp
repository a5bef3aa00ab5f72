#include "radius/delta.hpp"

#include <algorithm>

#include "pls/certificate.hpp"
#include "util/assert.hpp"

namespace pls::radius {

LabelingDelta LabelingDelta::diff(const core::Labeling& prev,
                                  const core::Labeling& next) {
  PLS_REQUIRE(prev.size() == next.size());
  LabelingDelta delta;
  for (graph::NodeIndex v = 0; v < prev.size(); ++v)
    if (!(prev.certs[v] == next.certs[v])) delta.touched.push_back(v);
  return delta;
}

void DirtyIndex::add(graph::NodeIndex center) {
  if (seen_.visited(center)) return;
  seen_.visit(center, 0);
  dirty_.push_back(center);
}

std::span<const graph::NodeIndex> DirtyIndex::collect(
    GeometryAtlas& atlas, const graph::Graph& g, unsigned r,
    std::span<const graph::NodeIndex> touched) {
  PLS_REQUIRE(r >= 1);
  seen_.reset(g.n());
  dirty_.clear();

  if (r == 1) {
    // The radius-1 ball is the closed neighborhood: adjacency answers
    // directly, no geometry needed (this is the plain 1-round schemes' path,
    // which never reads the atlas).
    for (const graph::NodeIndex v : touched) {
      PLS_REQUIRE(v < g.n());
      add(v);
      for (const graph::AdjEntry& a : g.adjacency(v)) add(a.to);
    }
  } else {
    // dist(u, v) <= r is symmetric: the centers whose radius-r ball contains
    // v are exactly the members of v's own radius-r ball, which the atlas
    // already caches (layer-partitioned, so a block built at any radius
    // >= r serves this lookup zero-copy).  v is itself a dirty center of
    // its own block, so the sweep will want every block requested here.
    std::shared_ptr<const GeometryBlock> block;
    for (const graph::NodeIndex v : touched) {
      PLS_REQUIRE(v < g.n());
      if (block == nullptr || !block->covers(v)) block = atlas.block(g, r, v);
      for (const GeomMember& m : block->ball(v, r).members) add(m.node);
    }
  }

  // Sorted dirty centers: deterministic sweep order, contiguous pool chunks
  // walk blocks in index order (one block re-request per boundary), and the
  // verdict splice reads like the full sweep's.
  std::sort(dirty_.begin(), dirty_.end());
  return dirty_;
}

}  // namespace pls::radius
