#ifndef GAL_GRAPH_KCORE_H_
#define GAL_GRAPH_KCORE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace gal {

/// Core decomposition and the classic 2-approximation for densest
/// subgraph — the "dense subgraph mining" building blocks of the survey's
/// structure-analytics path, also used to prune clique search (a k-clique
/// lives inside the (k-1)-core).
///
/// Unlike the analytics wrappers, these answer in the graph's layout ids
/// (internal ids, which differ from original ids on a reordered build),
/// and the clique search reads them that way.

/// Returns the core number of every vertex (bucket peeling, O(|E|)).
/// Precondition: undirected graph.
std::vector<uint32_t> CoreNumbers(const Graph& g);

/// Vertices of the maximal k-core (possibly empty).
std::vector<VertexId> KCore(const Graph& g, uint32_t k);

/// Degeneracy = max core number; the degeneracy ordering drives
/// Bron–Kerbosch clique enumeration.
struct DegeneracyResult {
  uint32_t degeneracy = 0;
  /// Peeling order: position i holds the i-th removed vertex. In this
  /// order every vertex has at most `degeneracy` neighbors later in it.
  std::vector<VertexId> order;
  std::vector<uint32_t> core_numbers;
};
DegeneracyResult DegeneracyOrder(const Graph& g);

/// Charikar peel: returns the vertex set whose induced subgraph has
/// average degree >= half the optimum densest subgraph.
struct DensestSubgraphResult {
  std::vector<VertexId> vertices;
  double density = 0.0;  // |E(S)| / |S|
};
DensestSubgraphResult DensestSubgraphPeel(const Graph& g);

}  // namespace gal

#endif  // GAL_GRAPH_KCORE_H_
