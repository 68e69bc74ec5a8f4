// Plain serial references the engine suites compare against: queue BFS,
// binary-heap Dijkstra under SyntheticEdgeWeight, and flood-fill
// components. Each walks g's out-neighbors in its own id space.

#ifndef GAL_TESTS_SERIAL_REFERENCE_H_
#define GAL_TESTS_SERIAL_REFERENCE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

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

}  // namespace gal

#endif  // GAL_TESTS_SERIAL_REFERENCE_H_
