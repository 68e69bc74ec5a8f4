#include "gnn/features.h"

#include <algorithm>
#include <cmath>

#include "graph/intersect.h"
#include "graph/kcore.h"
#include "tlag/algos/triangles.h"
#include "tlav/algos/pagerank.h"

namespace gal {

std::vector<uint64_t> PerVertexTriangles(const Graph& g) {
  const VertexId n = g.NumVertices();
  std::vector<uint64_t> count(n, 0);
  // The oriented join finds each triangle once: credit all three corners.
  OrientedRows oriented;
  oriented.Build(g, g, 0, n);
  std::vector<VertexId> common;  // scratch, reused across edges
  for (VertexId v = 0; v < n; ++v) {
    const std::span<const VertexId> row = oriented.Row(v);
    for (VertexId u : row) {
      IntersectInto(row, oriented.Row(u), common);
      count[v] += common.size();
      count[u] += common.size();
      for (const VertexId w : common) ++count[w];
    }
  }
  return count;
}

std::vector<double> ClusteringCoefficients(const Graph& g) {
  const std::vector<uint64_t> triangles = PerVertexTriangles(g);
  std::vector<double> cc(g.NumVertices(), 0.0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const uint64_t d = g.Degree(v);
    if (d < 2) continue;
    cc[v] = 2.0 * static_cast<double>(triangles[v]) /
            (static_cast<double>(d) * (d - 1));
  }
  return cc;
}

Matrix StructuralFeatures(const Graph& g) {
  const VertexId n = g.NumVertices();
  Matrix x(n, 6);
  const double max_degree = std::max<uint32_t>(1, g.MaxDegree());
  const double log_max = std::log1p(max_degree);
  const std::vector<double> cc = ClusteringCoefficients(g);
  const DegeneracyResult degen = DegeneracyOrder(g);
  const double degeneracy = std::max<uint32_t>(1, degen.degeneracy);
  PageRankOptions pr_options;
  pr_options.iterations = 15;
  const PageRankResult pr = PageRank(g, pr_options);

  for (VertexId v = 0; v < n; ++v) {
    x.at(v, 0) = 1.0f;
    x.at(v, 1) = static_cast<float>(g.Degree(v) / max_degree);
    x.at(v, 2) = static_cast<float>(std::log1p(g.Degree(v)) / log_max);
    x.at(v, 3) = static_cast<float>(cc[v]);
    x.at(v, 4) = static_cast<float>(degen.core_numbers[v] / degeneracy);
    // PageRank reports ranks in original-id space; feature rows here
    // are per layout vertex, so translate when the graph is reordered.
    x.at(v, 5) = static_cast<float>(pr.ranks[g.OriginalId(v)] * n);
  }
  return x;
}

}  // namespace gal
