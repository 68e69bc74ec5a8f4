#include "graph/generators.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"

namespace gal {
namespace {

Graph BuildUndirected(VertexId n, std::vector<Edge> edges) {
  Result<Graph> g = Graph::FromEdges(n, std::move(edges), GraphOptions{});
  GAL_CHECK(g.ok()) << g.status();
  return std::move(g.value());
}

}  // namespace

Graph ErdosRenyi(VertexId n, double p, uint64_t seed) {
  GAL_CHECK(p >= 0.0 && p <= 1.0);
  std::vector<Edge> edges;
  if (n >= 2 && p > 0.0) {
    Rng rng(seed);
    if (p >= 1.0) {
      return Complete(n);
    }
    // Iterate over the strictly-upper-triangular pair index with
    // geometric jumps: the gap to the next present edge is
    // floor(log(u) / log(1-p)).
    const double log1p = std::log(1.0 - p);
    const uint64_t total_pairs = static_cast<uint64_t>(n) * (n - 1) / 2;
    uint64_t idx = 0;
    for (;;) {
      double u = rng.NextDouble();
      while (u <= 0.0) u = rng.NextDouble();
      idx += 1 + static_cast<uint64_t>(std::log(u) / log1p);
      if (idx > total_pairs) break;
      // Map 1-based pair index to (row, col), row-major over pairs.
      const uint64_t k = idx - 1;
      // Find row r: the largest r with r*(2n-r-1)/2 <= k.
      const double nn = static_cast<double>(n);
      uint64_t r = static_cast<uint64_t>(
          std::floor(nn - 0.5 -
                     std::sqrt((nn - 0.5) * (nn - 0.5) - 2.0 *
                               static_cast<double>(k))));
      // Guard against floating-point boundary error.
      auto row_start = [&](uint64_t row) {
        return row * (2 * static_cast<uint64_t>(n) - row - 1) / 2;
      };
      while (r + 1 < n && row_start(r + 1) <= k) ++r;
      while (r > 0 && row_start(r) > k) --r;
      const uint64_t c = r + 1 + (k - row_start(r));
      edges.push_back(
          {static_cast<VertexId>(r), static_cast<VertexId>(c)});
    }
  }
  return BuildUndirected(n, std::move(edges));
}

Graph Rmat(uint32_t scale, uint32_t edge_factor, uint64_t seed) {
  // Graph500's quadrant probabilities; d = 1 - a - b - c.
  constexpr double kA = 0.57;
  constexpr double kB = 0.19;
  constexpr double kC = 0.19;
  GAL_CHECK(scale < 31);
  const VertexId n = static_cast<VertexId>(1u) << scale;
  const uint64_t m = static_cast<uint64_t>(edge_factor) * n;
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(m);
  const double ab = kA + kB;
  const double abc = ab + kC;
  for (uint64_t e = 0; e < m; ++e) {
    VertexId src = 0;
    VertexId dst = 0;
    for (uint32_t bit = 0; bit < scale; ++bit) {
      const double r = rng.NextDouble();
      if (r < kA) {
        // upper-left quadrant: no bits set
      } else if (r < ab) {
        dst |= (1u << bit);
      } else if (r < abc) {
        src |= (1u << bit);
      } else {
        src |= (1u << bit);
        dst |= (1u << bit);
      }
    }
    edges.push_back({src, dst});
  }
  return BuildUndirected(n, std::move(edges));
}

Graph BarabasiAlbert(VertexId n, uint32_t attach, uint64_t seed) {
  GAL_CHECK(attach >= 1);
  GAL_CHECK(n > attach);
  Rng rng(seed);
  std::vector<Edge> edges;
  // Repeated-endpoint list: sampling a uniform element of `endpoints`
  // is sampling proportional to degree.
  std::vector<VertexId> endpoints;
  // Seed clique over the first attach+1 vertices.
  for (VertexId u = 0; u <= attach; ++u) {
    for (VertexId v = u + 1; v <= attach; ++v) {
      edges.push_back({u, v});
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  std::vector<VertexId> chosen;
  for (VertexId v = attach + 1; v < n; ++v) {
    chosen.clear();
    while (chosen.size() < attach) {
      const VertexId t = endpoints[rng.Uniform(endpoints.size())];
      if (std::find(chosen.begin(), chosen.end(), t) == chosen.end()) {
        chosen.push_back(t);
      }
    }
    for (VertexId t : chosen) {
      edges.push_back({v, t});
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  return BuildUndirected(n, std::move(edges));
}

Graph PlantedPartition(VertexId n, uint32_t communities, double p_in,
                       double p_out, uint64_t seed) {
  GAL_CHECK(communities >= 1);
  Rng rng(seed);
  std::vector<Label> labels(n);
  for (VertexId v = 0; v < n; ++v) {
    labels[v] = v % communities;  // round-robin block assignment
  }
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      const double p = labels[u] == labels[v] ? p_in : p_out;
      if (rng.Bernoulli(p)) edges.push_back({u, v});
    }
  }
  Graph g = BuildUndirected(n, std::move(edges));
  GAL_CHECK_OK(g.SetLabels(std::move(labels)));
  return g;
}

Graph WattsStrogatz(VertexId n, uint32_t k, double beta, uint64_t seed) {
  GAL_CHECK(k >= 2 && k % 2 == 0);
  GAL_CHECK(n > k);
  GAL_CHECK(beta >= 0.0 && beta <= 1.0);
  Rng rng(seed);
  std::vector<Edge> edges;
  // Ring lattice: v connects to its k/2 clockwise successors.
  for (VertexId v = 0; v < n; ++v) {
    for (uint32_t j = 1; j <= k / 2; ++j) {
      VertexId u = (v + j) % n;
      if (rng.Bernoulli(beta)) {
        // Rewire the far endpoint to a uniform non-self target; the
        // CSR builder dedups any accidental multi-edges.
        u = static_cast<VertexId>(rng.Uniform(n));
        if (u == v) u = (v + 1) % n;
      }
      edges.push_back({v, u});
    }
  }
  return BuildUndirected(n, std::move(edges));
}

Graph Path(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return BuildUndirected(n, std::move(edges));
}

Graph Cycle(VertexId n) {
  GAL_CHECK(n >= 3);
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  edges.push_back({n - 1, 0});
  return BuildUndirected(n, std::move(edges));
}

Graph Star(VertexId n) {
  GAL_CHECK(n >= 1);
  std::vector<Edge> edges;
  for (VertexId v = 1; v < n; ++v) edges.push_back({0, v});
  return BuildUndirected(n, std::move(edges));
}

Graph Complete(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  return BuildUndirected(n, std::move(edges));
}

Graph Grid(VertexId rows, VertexId cols) {
  std::vector<Edge> edges;
  auto id = [cols](VertexId r, VertexId c) { return r * cols + c; };
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back({id(r, c), id(r, c + 1)});
      if (r + 1 < rows) edges.push_back({id(r, c), id(r + 1, c)});
    }
  }
  return BuildUndirected(rows * cols, std::move(edges));
}

Graph WithRandomLabels(Graph g, uint32_t num_labels, uint64_t seed) {
  GAL_CHECK(num_labels >= 1);
  Rng rng(seed);
  std::vector<Label> labels(g.NumVertices());
  for (Label& l : labels) l = static_cast<Label>(rng.Uniform(num_labels));
  GAL_CHECK_OK(g.SetLabels(std::move(labels)));
  return g;
}

}  // namespace gal
