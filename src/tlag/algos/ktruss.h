#ifndef GAL_TLAG_ALGOS_KTRUSS_H_
#define GAL_TLAG_ALGOS_KTRUSS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace gal {

/// k-truss decomposition: the k-truss is the maximal subgraph whose
/// every edge closes at least (k-2) triangles inside it. Trussness is
/// the cohesive-subgraph measure between cores and cliques — the other
/// standard "dense structure" the survey's structure-analytics path
/// mines (a k-truss is a (k-1)-core, and a k-clique is inside the
/// k-truss).
struct KTrussResult {
  /// trussness[i] for the i-th edge of Graph::CollectEdges order, each
  /// distinct edge once (a multigraph's parallel copies are one edge):
  /// the largest k such that the edge survives in the k-truss (>= 2).
  std::vector<uint32_t> trussness;
  std::vector<Edge> edges;  // that order, for convenience
  uint32_t max_trussness = 2;
  uint64_t support_updates = 0;  // peeling work measure
};

KTrussResult KTrussDecomposition(const Graph& g);

/// Vertices of the maximal k-truss (endpoints of surviving edges).
std::vector<VertexId> KTrussVertices(const Graph& g, uint32_t k);

}  // namespace gal

#endif  // GAL_TLAG_ALGOS_KTRUSS_H_
