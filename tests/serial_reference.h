// Plain serial references the engine suites compare against: queue BFS,
// binary-heap Dijkstra under SyntheticEdgeWeight, flood-fill components,
// power-iteration PageRank and brute-force subgraph-match counting. Each
// walks g's out-neighbors in its own id space. PageRankShapes() are the
// adversarial inputs the PageRank and out-of-core sweeps run them on.

#ifndef GAL_TESTS_SERIAL_REFERENCE_H_
#define GAL_TESTS_SERIAL_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "common/fixed_point.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "tlav/algos/traversal.h"

namespace gal {

inline std::vector<uint32_t> SerialBfs(const Graph& g, VertexId s) {
  std::vector<uint32_t> dist(g.NumVertices(), kUnreachable);
  std::queue<VertexId> q;
  dist[s] = 0;
  q.push(s);
  while (!q.empty()) {
    VertexId v = q.front();
    q.pop();
    g.ForEachOutNeighbor(v, [&](VertexId u) {
      if (dist[u] == kUnreachable) {
        dist[u] = dist[v] + 1;
        q.push(u);
      }
    });
  }
  return dist;
}

inline std::vector<uint64_t> SerialDijkstra(const Graph& g, VertexId s) {
  constexpr uint64_t kInf = std::numeric_limits<uint64_t>::max();
  std::vector<uint64_t> dist(g.NumVertices(), kInf);
  using Item = std::pair<uint64_t, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[s] = 0;
  pq.push({0, s});
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d != dist[v]) continue;
    g.ForEachOutNeighbor(v, [&](VertexId u) {
      const uint64_t nd = d + SyntheticEdgeWeight(v, u);
      if (nd < dist[u]) {
        dist[u] = nd;
        pq.push({nd, u});
      }
    });
  }
  return dist;
}

/// Each vertex labeled with the smallest id of its component (the first
/// vertex, in id order, to start a flood fill reaching it).
inline std::vector<VertexId> SerialComponents(const Graph& g) {
  std::vector<VertexId> comp(g.NumVertices(), kInvalidVertex);
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    if (comp[s] != kInvalidVertex) continue;
    std::queue<VertexId> q;
    q.push(s);
    comp[s] = s;
    while (!q.empty()) {
      VertexId v = q.front();
      q.pop();
      g.ForEachOutNeighbor(v, [&](VertexId u) {
        if (comp[u] == kInvalidVertex) {
          comp[u] = s;
          q.push(u);
        }
      });
    }
  }
  return comp;
}

/// PageRank by power iteration over g's rows, in the 2^-50 fixed point
/// of common/fixed_point.h, so every sum is exact in any order. Ranks
/// start at 1/n; each of `iterations` rounds sends rank/degree along
/// every out-edge (self-loops and repeated edges included) and shares
/// the rank of vertices with no out-edges evenly. Ranks come back in
/// original-id order.
inline std::vector<double> SerialPageRank(const Graph& g, uint32_t iterations,
                                          double damping) {
  const VertexId n = g.NumVertices();
  const double dn = static_cast<double>(n);
  std::vector<double> rank(n, 1.0 / dn);
  std::vector<uint64_t> incoming(n);
  for (uint32_t i = 0; i < iterations; ++i) {
    std::fill(incoming.begin(), incoming.end(), 0);
    uint64_t dangling = 0;
    for (VertexId v = 0; v < n; ++v) {
      const uint32_t degree = g.Degree(v);
      if (degree == 0) {
        dangling += ToFixed(rank[v]);
        continue;
      }
      const uint64_t share = ToFixed(rank[v] / degree);
      g.ForEachOutNeighbor(v, [&](VertexId u) { incoming[u] += share; });
    }
    const double dangling_share = FromFixed(dangling) / dn;
    for (VertexId v = 0; v < n; ++v) {
      rank[v] = (1.0 - damping) / dn +
                damping * (FromFixed(incoming[v]) + dangling_share);
    }
  }
  return g.MapToOriginal(std::move(rank));
}

/// One input of the PageRank sweep: an edge list and the options it is
/// built with on the raw layout.
struct PageRankShape {
  const char* name;
  VertexId n;
  std::vector<Edge> edges;
  GraphOptions options;
};

inline std::vector<PageRankShape> PageRankShapes() {
  std::vector<PageRankShape> shapes;
  shapes.push_back({"empty", 0, {}, {}});
  shapes.push_back({"one-vertex", 1, {}, {}});
  {
    std::vector<Edge> edges = ErdosRenyi(40, 0.2, 5).CollectEdges();
    for (VertexId v = 0; v < 40; v += 3) edges.push_back({v, v});
    GraphOptions options;
    options.remove_self_loops = false;
    shapes.push_back({"self-loops", 40, std::move(edges), options});
  }
  {
    std::vector<Edge> edges;
    const std::vector<Edge> base = BarabasiAlbert(60, 4, 3).CollectEdges();
    for (size_t i = 0; i < base.size(); ++i) {
      for (size_t copy = 0; copy <= i % 3; ++copy) edges.push_back(base[i]);
    }
    GraphOptions options;
    options.dedup = false;
    shapes.push_back({"parallel-edges", 60, std::move(edges), options});
  }
  {
    // Every edge points to a higher id, so vertex 49 and the isolated
    // vertices 50..59 have no out-edges and their rank is shared out.
    GraphOptions options;
    options.directed = true;
    shapes.push_back({"directed-dangling", 60,
                      ErdosRenyi(50, 0.1, 9).CollectEdges(), options});
  }
  {
    // K5, a 6-cycle, a 4-path, two isolated vertices, an ER blob.
    std::vector<Edge> edges;
    for (VertexId a = 0; a < 5; ++a) {
      for (VertexId b = a + 1; b < 5; ++b) edges.push_back({a, b});
    }
    for (VertexId i = 0; i < 6; ++i) edges.push_back({5 + i, 5 + (i + 1) % 6});
    for (VertexId i = 0; i < 3; ++i) edges.push_back({11 + i, 12 + i});
    for (const Edge& e : ErdosRenyi(20, 0.3, 7).CollectEdges()) {
      edges.push_back({e.src + 17, e.dst + 17});
    }
    shapes.push_back({"disconnected", 37, std::move(edges), {}});
  }
  {
    std::vector<Edge> edges = Star(61).CollectEdges();
    for (VertexId leaf = 1; leaf + 1 < 61; leaf += 2) {
      edges.push_back({leaf, leaf + 1});
    }
    shapes.push_back({"hub-star", 61, std::move(edges), {}});
  }
  shapes.push_back({"long-path", 300, Path(300).CollectEdges(), {}});
  shapes.push_back({"rmat", 512, Rmat(9, 8, 17).CollectEdges(), {}});
  return shapes;
}

/// Number of injective maps f from query vertices to data vertices such
/// that every query edge {a, b} is a data edge {f(a), f(b)} and, when
/// both graphs are labeled, labels agree; with `induced`, query
/// non-edges must map to data non-edges too. Every automorphic image
/// counts, so SerialMatchCount(q, q, false) = |Aut(q)|. Self-loops and
/// repeated edges collapse into std::set adjacency; nothing here comes
/// from src/match/ or graph/intersect.h.
inline uint64_t SerialMatchCount(const Graph& data, const Graph& query,
                                 bool induced) {
  auto adjacency = [](const Graph& g) {
    std::vector<std::set<VertexId>> adj(g.NumVertices());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      g.ForEachOutNeighbor(v, [&](VertexId u) { adj[v].insert(u); });
    }
    return adj;
  };
  const std::vector<std::set<VertexId>> d = adjacency(data);
  const std::vector<std::set<VertexId>> q = adjacency(query);
  const VertexId k = query.NumVertices();
  const bool labeled = data.IsLabeled() && query.IsLabeled();

  // Query vertices in BFS order from 0 (per component), so every vertex
  // after a component's first has an earlier neighbor whose image's
  // adjacency bounds its images.
  std::vector<VertexId> order;
  std::vector<bool> seen(k, false);
  for (VertexId s = 0; s < k; ++s) {
    if (seen[s]) continue;
    seen[s] = true;
    order.push_back(s);
    for (size_t i = order.size() - 1; i < order.size(); ++i) {
      for (VertexId w : q[order[i]]) {
        if (!seen[w]) {
          seen[w] = true;
          order.push_back(w);
        }
      }
    }
  }

  std::vector<VertexId> image(k, kInvalidVertex);
  std::vector<bool> used(data.NumVertices(), false);
  std::function<uint64_t(size_t)> extend = [&](size_t i) -> uint64_t {
    if (i == order.size()) return 1;
    const VertexId u = order[i];
    auto fits = [&](VertexId v) {
      if (used[v]) return false;
      if (labeled && data.LabelOf(v) != query.LabelOf(u)) return false;
      for (size_t j = 0; j < i; ++j) {
        const VertexId w = order[j];
        const bool query_edge = q[u].count(w) > 0;
        const bool data_edge = d[v].count(image[w]) > 0;
        if (query_edge && !data_edge) return false;
        if (induced && !query_edge && data_edge) return false;
      }
      return true;
    };
    VertexId anchor = kInvalidVertex;
    for (size_t j = 0; j < i && anchor == kInvalidVertex; ++j) {
      if (q[u].count(order[j]) > 0) anchor = image[order[j]];
    }
    std::vector<VertexId> pool;
    if (anchor != kInvalidVertex) {
      pool.assign(d[anchor].begin(), d[anchor].end());
    } else {
      for (VertexId v = 0; v < data.NumVertices(); ++v) pool.push_back(v);
    }
    uint64_t count = 0;
    for (VertexId v : pool) {
      if (!fits(v)) continue;
      image[u] = v;
      used[v] = true;
      count += extend(i + 1);
      used[v] = false;
    }
    return count;
  };
  return extend(0);
}

}  // namespace gal

#endif  // GAL_TESTS_SERIAL_REFERENCE_H_
