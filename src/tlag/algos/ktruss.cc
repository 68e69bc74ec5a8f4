#include "tlag/algos/ktruss.h"

#include <algorithm>
#include <map>
#include <queue>

#include "common/logging.h"
#include "graph/intersect.h"

namespace gal {
namespace {

/// Edge index lookup for (u, v) with u < v.
struct EdgeIndex {
  std::map<std::pair<VertexId, VertexId>, uint32_t> index;

  uint32_t Of(VertexId u, VertexId v) const {
    if (u > v) std::swap(u, v);
    auto it = index.find({u, v});
    GAL_DCHECK(it != index.end());
    return it->second;
  }
};

}  // namespace

KTrussResult KTrussDecomposition(const Graph& g) {
  KTrussResult result;
  // A multigraph lists a repeated edge once per copy, next to each other.
  result.edges = g.CollectEdges();
  result.edges.erase(std::unique(result.edges.begin(), result.edges.end()),
                     result.edges.end());
  const uint32_t m = static_cast<uint32_t>(result.edges.size());
  result.trussness.assign(m, 2);
  if (m == 0) return result;

  EdgeIndex idx;
  for (uint32_t e = 0; e < m; ++e) {
    idx.index[{result.edges[e].src, result.edges[e].dst}] = e;
  }

  // Initial supports: triangles through each edge, via the shared
  // sorted intersection (graph-row form: reads each row as a set,
  // decoding through `scratch` when the adjacency is compressed or
  // repeats a neighbor, zero-copy otherwise).
  NeighborScratch scratch;
  std::vector<uint32_t> support(m, 0);
  for (uint32_t e = 0; e < m; ++e) {
    support[e] = static_cast<uint32_t>(
        IntersectCount(g, result.edges[e].src, result.edges[e].dst, scratch));
  }

  // Peel edges in increasing support; when edge (u,v) is removed, the
  // supports of the other two edges of each triangle through it drop.
  std::vector<uint8_t> removed(m, 0);
  using Item = std::pair<uint32_t, uint32_t>;  // (support, edge)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  for (uint32_t e = 0; e < m; ++e) pq.push({support[e], e});

  uint32_t k = 2;
  std::vector<VertexId> common;  // scratch, reused across peels
  while (!pq.empty()) {
    auto [s, e] = pq.top();
    pq.pop();
    if (removed[e] || s != support[e]) continue;  // stale entry
    k = std::max(k, support[e] + 2);
    result.trussness[e] = k;
    result.max_trussness = std::max(result.max_trussness, k);
    removed[e] = 1;

    const VertexId u = result.edges[e].src;
    const VertexId v = result.edges[e].dst;
    IntersectInto(NeighborSetInto(g, u, scratch.a), g, v, common, scratch);
    for (const VertexId w : common) {
      const uint32_t e1 = idx.Of(u, w);
      const uint32_t e2 = idx.Of(v, w);
      if (!removed[e1] && !removed[e2]) {
        // The triangle (u,v,w) disappears with e.
        for (uint32_t other : {e1, e2}) {
          GAL_DCHECK(support[other] > 0);
          --support[other];
          ++result.support_updates;
          pq.push({support[other], other});
        }
      }
    }
  }

  if (g.IsReordered()) {
    // Report edges in the caller's original id space (normalized
    // src < dst, like CollectEdges on an unordered build).
    for (Edge& edge : result.edges) {
      edge.src = g.OriginalId(edge.src);
      edge.dst = g.OriginalId(edge.dst);
      if (edge.src > edge.dst) std::swap(edge.src, edge.dst);
    }
  }
  return result;
}

std::vector<VertexId> KTrussVertices(const Graph& g, uint32_t k) {
  KTrussResult decomposition = KTrussDecomposition(g);
  std::vector<uint8_t> in(g.NumVertices(), 0);
  for (uint32_t e = 0; e < decomposition.edges.size(); ++e) {
    if (decomposition.trussness[e] >= k) {
      in[decomposition.edges[e].src] = 1;
      in[decomposition.edges[e].dst] = 1;
    }
  }
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (in[v]) out.push_back(v);
  }
  return out;
}

}  // namespace gal
