#ifndef GAL_PARTITION_PARTITION_H_
#define GAL_PARTITION_PARTITION_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/neighbor_source.h"

namespace gal {

/// A disjoint assignment of vertices to `num_parts` workers — the unit of
/// data placement for both the TLAV engine and the distributed-GNN
/// simulator. The survey's systems differ chiefly in *how* this map is
/// computed (hash in Pregel, METIS in DistDGL/DGCL, BFS-Voronoi blocks in
/// ByteGNN/BGL); all of those strategies live in this module so benches
/// can swap them under an identical training/analytics job.
struct VertexPartition {
  uint32_t num_parts = 1;
  /// assignment[v] in [0, num_parts).
  std::vector<uint32_t> assignment;

  uint32_t PartOf(VertexId v) const { return assignment[v]; }
};

/// Quality metrics of a vertex partition.
struct PartitionQuality {
  /// Undirected edges whose endpoints land on different parts.
  uint64_t edge_cut = 0;
  /// edge_cut / |E|.
  double cut_ratio = 0.0;
  /// max part size / (|V| / num_parts).
  double balance = 0.0;
  std::vector<uint64_t> part_sizes;

  std::string ToString() const;
};
PartitionQuality EvaluatePartition(const Graph& g, const VertexPartition& p);

/// --- Strategies ------------------------------------------------------

/// Pregel-style modulo hash: perfectly balanced, oblivious to topology.
VertexPartition HashPartition(const Graph& g, uint32_t num_parts);

/// Contiguous id ranges; good when vertex ids carry locality (grids).
VertexPartition RangePartition(const Graph& g, uint32_t num_parts);

/// Linear Deterministic Greedy streaming partitioner: place each vertex
/// on the part holding most of its already-placed neighbors, damped by a
/// capacity penalty. The classic one-pass heuristic that industrial
/// systems use when METIS is too expensive.
VertexPartition LdgPartition(const Graph& g, uint32_t num_parts,
                             uint64_t seed = 1);

/// Multilevel partitioner (METIS stand-in): coarsen by heavy-edge
/// matching down to 256 vertices, split greedily by BFS region growing,
/// then project back with up to 4 boundary-refinement passes per level,
/// each move keeping every part within 1.05x the average load.
VertexPartition MultilevelPartition(const Graph& g, uint32_t num_parts);

/// ByteGNN/BGL-style partitioner specialized for GNN workloads: grow BFS
/// regions from the *training seed* vertices (the graph Voronoi diagram
/// of the seeds) to form many small blocks, then stream blocks to parts
/// balancing the number of seeds per part. Keeps each seed's k-hop
/// neighborhood mostly within one part even when the global edge cut is
/// worse than METIS's.
VertexPartition BfsVoronoiPartition(const Graph& g, uint32_t num_parts,
                                    const std::vector<VertexId>& seeds);

/// --- Live rebalancing -------------------------------------------------

/// Sheds load from an overloaded part: reassigns half of part `from`'s
/// vertices (the tail of its ascending-id list — a contiguous range
/// under range partitions, deterministic under any) to the other
/// parts using LdgPartition's greedy rule — most already-placed
/// neighbors, damped by a capacity penalty — with `from` excluded as a
/// destination. The elastic-cluster runtime calls this on sustained
/// straggler detection. `moved` (optional) receives the reassigned
/// vertices in ascending id order. `g` is any neighbor source; it is
/// read between steps, when no worker holds a row.
template <NeighborSource G>
VertexPartition RebalanceAway(const G& g, const VertexPartition& current,
                              uint32_t from,
                              std::vector<VertexId>* moved = nullptr) {
  GAL_CHECK(from < current.num_parts);
  VertexPartition p = current;
  if (moved != nullptr) moved->clear();
  if (current.num_parts < 2) return p;

  const VertexId n = static_cast<VertexId>(current.assignment.size());
  std::vector<VertexId> owned;
  std::vector<uint64_t> load(current.num_parts, 0);
  for (VertexId v = 0; v < n; ++v) {
    ++load[current.assignment[v]];
    if (current.assignment[v] == from) owned.push_back(v);
  }
  const size_t count = owned.size() / 2;
  if (count == 0) return p;

  // The shed range: the tail of the overloaded part's id space. Placing
  // streams it through LDG's greedy (affinity x capacity penalty) over
  // the remaining parts.
  const double capacity = static_cast<double>(n) / current.num_parts + 1.0;
  std::vector<uint32_t> neighbor_count(current.num_parts, 0);
  for (size_t i = owned.size() - count; i < owned.size(); ++i) {
    const VertexId v = owned[i];
    std::fill(neighbor_count.begin(), neighbor_count.end(), 0);
    g.ForEachOutNeighbor(v, [&](VertexId u) { ++neighbor_count[p.assignment[u]]; });
    double best_score = std::numeric_limits<double>::lowest();
    uint32_t best_part = from == 0 ? 1 : 0;
    for (uint32_t part = 0; part < current.num_parts; ++part) {
      if (part == from) continue;
      const double penalty =
          1.0 - static_cast<double>(load[part]) / capacity;
      const double score = (neighbor_count[part] + 1.0) * penalty;
      if (score > best_score) {
        best_score = score;
        best_part = part;
      }
    }
    p.assignment[v] = best_part;
    --load[from];
    ++load[best_part];
    if (moved != nullptr) moved->push_back(v);
  }
  return p;
}

/// --- Vertex-cut (edge) partitioning ----------------------------------

/// An assignment of *edges* to parts; vertices incident to edges on
/// several parts are replicated (the DistGNN / PowerGraph model, where
/// communication cost tracks the replication factor, not the edge cut).
struct EdgePartition {
  uint32_t num_parts = 1;
  /// For each logical edge (Graph::CollectEdges order), its part.
  std::vector<uint32_t> edge_assignment;
  /// replicas[v] = number of distinct parts with an edge incident to v.
  std::vector<uint32_t> replicas;
  /// Average of replicas[v] over vertices with degree > 0.
  double replication_factor = 0.0;
};

/// Greedy vertex-cut: assign each edge to the part already holding its
/// endpoints where possible, breaking ties by load.
EdgePartition GreedyVertexCut(const Graph& g, uint32_t num_parts);

/// --- Feature partitioning (P3) ----------------------------------------

/// P3 splits the *feature matrix* by dimension instead of the graph by
/// topology: worker w owns feature columns [ranges[w].first,
/// ranges[w].second) of every vertex. Returns per-worker column ranges.
std::vector<std::pair<uint32_t, uint32_t>> FeatureDimensionPartition(
    uint32_t feature_dim, uint32_t num_parts);

}  // namespace gal

#endif  // GAL_PARTITION_PARTITION_H_
