#include "tlav/algos/wcc_sv.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "common/logging.h"
#include "graph/components.h"
#include "tlav/algos/wcc.h"

namespace gal {

SvWccResult SvWcc(const Graph& g) {
  const VertexId n = g.NumVertices();
  SvWccResult result;
  std::vector<VertexId> parent(n);
  for (VertexId v = 0; v < n; ++v) parent[v] = v;
  if (n == 0) return result;

  // Synchronous rounds, as a BSP engine would execute them: every hook
  // decision in a round reads the round's *snapshot* of the parent
  // array (what a Pregel superstep sees), so the measured round count
  // reflects the parallel algorithm's O(log |V|), not sequential luck.
  std::vector<VertexId> proposal(n);
  bool changed = true;
  while (changed) {
    changed = false;
    ++result.rounds;
    // Hook phase: every root collects the minimum neighboring root
    // proposed against the snapshot.
    for (VertexId v = 0; v < n; ++v) proposal[v] = parent[v];
    for (VertexId u = 0; u < n; ++u) {
      g.ForEachOutNeighbor(u, [&](VertexId v) {
        ++result.work;
        const VertexId ru = parent[u];
        const VertexId rv = parent[v];
        if (ru == rv) return;
        // Hook only roots (parent[r] == r) to preserve forest shape.
        if (ru < rv && parent[rv] == rv) {
          proposal[rv] = std::min(proposal[rv], ru);
        } else if (rv < ru && parent[ru] == ru) {
          proposal[ru] = std::min(proposal[ru], rv);
        }
      });
    }
    for (VertexId v = 0; v < n; ++v) {
      if (proposal[v] != parent[v]) {
        parent[v] = proposal[v];
        changed = true;
      }
    }
    // Jump phase: one synchronous halving step (parent = grandparent),
    // again from a snapshot.
    for (VertexId v = 0; v < n; ++v) proposal[v] = parent[parent[v]];
    for (VertexId v = 0; v < n; ++v) {
      ++result.work;
      if (parent[v] != proposal[v]) {
        parent[v] = proposal[v];
        changed = true;
      }
    }
  }

  result.component = std::move(parent);
  result.num_components = CountComponents(result.component);
  return result;
}

BlockWccResult BlockWcc(const Graph& g, uint32_t num_blocks,
                        const TlavConfig& config) {
  const VertexId n = g.NumVertices();
  BlockWccResult result;
  if (n == 0) return result;
  GAL_CHECK(num_blocks >= 1);

  // Deterministic spread of seeds across the id space.
  std::vector<VertexId> seeds;
  const VertexId stride = std::max<VertexId>(1, n / num_blocks);
  for (VertexId s = 0; s < n && seeds.size() < num_blocks; s += stride) {
    seeds.push_back(s);
  }
  VertexPartition blocks = BfsVoronoiPartition(g, num_blocks, seeds);
  result.num_blocks = num_blocks;

  // Step 1 (inside each block, serial): local components via union-find.
  std::vector<VertexId> local_root(n);
  for (VertexId v = 0; v < n; ++v) local_root[v] = v;
  std::function<VertexId(VertexId)> find = [&](VertexId v) {
    while (local_root[v] != v) {
      local_root[v] = local_root[local_root[v]];
      v = local_root[v];
    }
    return v;
  };
  for (VertexId u = 0; u < n; ++u) {
    g.ForEachOutNeighbor(u, [&](VertexId v) {
      if (blocks.assignment[u] != blocks.assignment[v]) return;
      const VertexId ru = find(u);
      const VertexId rv = find(v);
      if (ru != rv) local_root[std::max(ru, rv)] = std::min(ru, rv);
    });
  }
  for (VertexId v = 0; v < n; ++v) local_root[v] = find(v);

  // Step 2: quotient graph over local components, connected by the
  // cross-block edges, solved with hash-min Wcc(). The quotient is tiny,
  // so supersteps track its diameter, not the original graph's.
  std::unordered_map<VertexId, VertexId> quotient_id;
  std::vector<VertexId> quotient_rep;
  for (VertexId v = 0; v < n; ++v) {
    const VertexId r = local_root[v];
    if (quotient_id.emplace(r, static_cast<VertexId>(quotient_rep.size()))
            .second) {
      quotient_rep.push_back(r);
    }
  }
  std::vector<Edge> quotient_edges;
  for (VertexId u = 0; u < n; ++u) {
    g.ForEachOutNeighbor(u, [&](VertexId v) {
      if (blocks.assignment[u] == blocks.assignment[v]) return;
      const VertexId qu = quotient_id[local_root[u]];
      const VertexId qv = quotient_id[local_root[v]];
      if (qu != qv) {
        quotient_edges.push_back({std::min(qu, qv), std::max(qu, qv)});
      }
    });
  }
  Result<Graph> quotient = Graph::FromEdges(
      static_cast<VertexId>(quotient_rep.size()), std::move(quotient_edges),
      GraphOptions{});
  GAL_CHECK(quotient.ok()) << quotient.status();

  WccResult quotient_wcc = Wcc(quotient.value(), config);
  GAL_CHECK_OK(quotient_wcc.status);
  result.block_supersteps = quotient_wcc.stats.supersteps;
  result.block_stats = quotient_wcc.stats;

  // Project back: component of v = quotient component of its local root,
  // normalized to the smallest original vertex id in the component so
  // results are comparable with Wcc()/SvWcc().
  std::unordered_map<VertexId, VertexId> comp_min;
  std::vector<VertexId> comp_of(n);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId q = quotient_id[local_root[v]];
    comp_of[v] = quotient_wcc.component[q];
    auto [it, inserted] = comp_min.emplace(comp_of[v], v);
    if (!inserted) it->second = std::min(it->second, v);
  }
  result.component.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    result.component[v] = comp_min[comp_of[v]];
  }
  result.num_components = static_cast<uint32_t>(comp_min.size());
  return result;
}

}  // namespace gal
