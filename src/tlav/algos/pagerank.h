#ifndef GAL_TLAV_ALGOS_PAGERANK_H_
#define GAL_TLAV_ALGOS_PAGERANK_H_

#include <vector>

#include "graph/graph.h"
#include "tlav/engine.h"

namespace gal {

/// PageRank on the TLAV engine — the survey's canonical "vertex
/// analytics" workload (Figure 1 path 1). Dangling mass is redistributed
/// through an aggregator, exercising Pregel's aggregator mechanism.
struct PageRankOptions {
  uint32_t iterations = 20;
  double damping = 0.85;
  TlavConfig engine;
};

struct PageRankResult {
  std::vector<double> ranks;  // sums to ~1
  TlavStats stats;
};

/// Instantiated for an in-memory Graph and for a ShardedGraph, the store
/// OocPageRank runs it over.
template <NeighborSource G>
PageRankResult PageRank(const G& g, const PageRankOptions& options = {});

}  // namespace gal

#endif  // GAL_TLAV_ALGOS_PAGERANK_H_
