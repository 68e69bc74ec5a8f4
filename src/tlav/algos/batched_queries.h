#ifndef GAL_TLAV_ALGOS_BATCHED_QUERIES_H_
#define GAL_TLAV_ALGOS_BATCHED_QUERIES_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "tlav/engine.h"

namespace gal {

/// Quegel-style online vertex queries with superstep-sharing: many
/// light point queries (here: single-source BFS distance queries) run
/// *inside one BSP schedule*, so the per-superstep barrier and message
/// routing are amortized across the whole batch instead of being paid
/// per query — the core idea of the presenters' query-centric system.
struct BatchedBfsResult {
  /// distances[q][v] = hop distance from sources[q] (kUnreachable if
  /// not reached).
  std::vector<std::vector<uint32_t>> distances;
  TlavStats stats;           // one engine run for the whole batch
  uint32_t queries = 0;
};

BatchedBfsResult BatchedBfsQueries(const Graph& g,
                                   const std::vector<VertexId>& sources,
                                   const TlavConfig& config = {});

/// Baseline: BatchedBfsQueries with a batch of one, once per source, so
/// each query pays its own BSP schedule while the program, the messages
/// and the wire traffic stay the same. Returns summed stats.
BatchedBfsResult SequentialBfsQueries(const Graph& g,
                                      const std::vector<VertexId>& sources,
                                      const TlavConfig& config = {});

}  // namespace gal

#endif  // GAL_TLAV_ALGOS_BATCHED_QUERIES_H_
