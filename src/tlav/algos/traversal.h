#ifndef GAL_TLAV_ALGOS_TRAVERSAL_H_
#define GAL_TLAV_ALGOS_TRAVERSAL_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "frontier/direction.h"
#include "graph/graph.h"
#include "tlav/engine.h"

namespace gal {

inline constexpr uint32_t kUnreachable = std::numeric_limits<uint32_t>::max();

/// How a traversal runs. Every BFS and SSSP executes on the
/// direction-optimizing frontier substrate (frontier/traversal.h), in
/// any direction mode and under any fault plan. `engine` supplies the
/// simulated cluster (`cluster` / `num_workers`), the step bound
/// (`max_supersteps`), the wire envelope (`message_overhead_bytes`) and
/// the shared FaultPlan (`faults`: checkpoints, failures, stragglers,
/// rebalancing); Pregel+ mirroring is a TlavEngine feature, and a
/// non-zero `mirror_degree_threshold` is rejected. `direction` picks
/// Beamer auto-switching (the default, or GAL_FRONTIER_MODE) or a forced
/// mode — push-only is the baseline the Beamer comparison measures
/// against. Results are bit-identical across all of these.
struct TraversalOptions {
  TlavConfig engine;
  DirectionConfig direction = DirectionConfig::FromEnv();
};

/// Hop distances from `source`. `status` is non-OK and `distance` empty
/// when `source` is out of range or the options are rejected.
struct BfsResult {
  std::vector<uint32_t> distance;  // kUnreachable if not reached
  TlavStats stats;
  Status status;
};
BfsResult TlavBfs(const Graph& g, VertexId source,
                  const TraversalOptions& options);
BfsResult TlavBfs(const Graph& g, VertexId source,
                  const TlavConfig& config = {});

/// Deterministic synthetic edge weight in [1, 16], symmetric in (u, v).
/// Gives the unweighted substrate a weighted-SSSP workload without
/// storing weights in the CSR arrays.
uint32_t SyntheticEdgeWeight(VertexId u, VertexId v);

/// Single-source shortest paths with SyntheticEdgeWeight: delta-free
/// Bellman-Ford on the frontier substrate. Every step scatters (a
/// weighted gather has no early exit), so `direction` does not apply.
/// Same error contract as TlavBfs.
struct SsspResult {
  std::vector<uint64_t> distance;  // UINT64_MAX if not reached
  TlavStats stats;
  Status status;
};
SsspResult TlavSssp(const Graph& g, VertexId source,
                    const TraversalOptions& options);
SsspResult TlavSssp(const Graph& g, VertexId source,
                    const TlavConfig& config = {});

}  // namespace gal

#endif  // GAL_TLAV_ALGOS_TRAVERSAL_H_
