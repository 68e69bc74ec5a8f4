#ifndef GAL_GNN_FEATURES_H_
#define GAL_GNN_FEATURES_H_

#include <vector>

#include "graph/graph.h"
#include "tensor/matrix.h"

namespace gal {

/// Classic structural vertex features — the survey's "vertex analytics +
/// ML" path (Figure 1 path 2) where analytics output feeds downstream
/// models, and the kind of features Stolman et al. show can outperform
/// embeddings. Columns:
///   0: constant 1
///   1: degree / max_degree
///   2: log(1 + degree), scaled to [0, 1]
///   3: local clustering coefficient
///   4: core number / degeneracy
///   5: PageRank, scaled by |V| (≈1 for average vertices)
Matrix StructuralFeatures(const Graph& g);

/// Distinct triangles through each vertex (exact, oriented intersections).
std::vector<uint64_t> PerVertexTriangles(const Graph& g);

/// Local clustering coefficient per vertex.
std::vector<double> ClusteringCoefficients(const Graph& g);

}  // namespace gal

#endif  // GAL_GNN_FEATURES_H_
