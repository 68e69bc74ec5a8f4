#include "gnn/features.h"

#include <algorithm>
#include <cmath>

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
  MarkedRow marks(n);
  uint64_t ops = 0;
  for (VertexId v = 0; v < n; ++v) {
    count[v] += marks.Join(
        oriented.Row(v), oriented, ops,
        [&](VertexId u, std::span<const VertexId> target, uint64_t closed) {
          if (closed == 0) return;
          count[u] += closed;
          for (const VertexId w : target) count[w] += marks.Marked(w);
        });
  }
  return g.MapToOriginal(std::move(count));
}

std::vector<double> ClusteringCoefficients(const Graph& g) {
  const std::vector<uint64_t> triangles = PerVertexTriangles(g);
  std::vector<double> cc(g.NumVertices(), 0.0);
  for (VertexId o = 0; o < g.NumVertices(); ++o) {
    const uint64_t d = g.Degree(g.InternalId(o));
    if (d < 2) continue;
    cc[o] = 2.0 * static_cast<double>(triangles[o]) /
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

  // Row o is original vertex o; the degree and the core number are
  // read at its layout id.
  for (VertexId o = 0; o < n; ++o) {
    const VertexId v = g.InternalId(o);
    x.at(o, 0) = 1.0f;
    x.at(o, 1) = static_cast<float>(g.Degree(v) / max_degree);
    x.at(o, 2) = static_cast<float>(std::log1p(g.Degree(v)) / log_max);
    x.at(o, 3) = static_cast<float>(cc[o]);
    x.at(o, 4) = static_cast<float>(degen.core_numbers[v] / degeneracy);
    x.at(o, 5) = static_cast<float>(pr.ranks[o] * n);
  }
  return x;
}

}  // namespace gal
