#ifndef GAL_GRAPH_COMPONENTS_H_
#define GAL_GRAPH_COMPONENTS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace gal {

// The component-label rules every WCC shares — Wcc() over the frontier
// substrate and OocWcc() over shard files — defined once so the
// in-memory and out-of-core results cannot drift apart.

/// Labels computed in internal space are each component's min *internal*
/// id, which depends on the layout. Relabels to the min *original* id so
/// reordered runs are bit-identical to unordered ones: one ascending pass
/// over original ids — the first original id to reach a component root
/// is, by construction, that component's minimum. `G` is any graph with
/// the reorder-permutation API (Graph, ShardedGraph).
template <typename G>
std::vector<VertexId> CanonicalizeComponents(const G& g,
                                             std::vector<VertexId> internal) {
  if (!g.IsReordered()) return internal;
  const VertexId n = g.NumVertices();
  std::vector<VertexId> mapped(n);
  std::vector<VertexId> root_label(n, kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId root = internal[g.InternalId(v)];
    if (root_label[root] == kInvalidVertex) root_label[root] = v;
    mapped[v] = root_label[root];
  }
  return mapped;
}

/// Number of distinct labels. Labels are vertex ids, so each is below
/// labels.size().
inline uint32_t CountComponents(std::span<const VertexId> labels) {
  std::vector<uint8_t> seen(labels.size(), 0);
  uint32_t components = 0;
  for (VertexId label : labels) {
    if (!seen[label]) {
      seen[label] = 1;
      ++components;
    }
  }
  return components;
}

}  // namespace gal

#endif  // GAL_GRAPH_COMPONENTS_H_
