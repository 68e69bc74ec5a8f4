#ifndef GAL_TLAV_ALGOS_WCC_H_
#define GAL_TLAV_ALGOS_WCC_H_

#include <vector>

#include "common/status.h"
#include "frontier/direction.h"
#include "graph/graph.h"
#include "tlav/engine.h"

namespace gal {

/// Weakly connected components by hash-min label propagation: each
/// vertex repeatedly adopts the minimum id seen in its neighborhood.
/// On directed graphs, propagation runs over the symmetrized
/// Graph::UndirectedView() — weak connectivity ignores edge direction
/// (an earlier version propagated along out-edges only, over-counting
/// components on directed graphs).
///
/// Superstep count is O(diameter) — the workload behind the survey's
/// discussion of TLAV's O((|V|+|E|) log |V|) practical-efficiency
/// envelope (low-diameter graphs converge in ~log |V| rounds; a path
/// graph shows the degenerate linear case).
struct WccResult {
  std::vector<VertexId> component;  // min vertex id of each component
  uint32_t num_components = 0;
  TlavStats stats;
  Status status;  // non-OK (and `component` empty) when options are rejected
};

/// Same contract as TraversalOptions: every run executes on the frontier
/// substrate in any direction mode and under any fault plan, and a
/// non-zero `engine.mirror_degree_threshold` is rejected. Components are
/// identical across direction schedules, workers, threads and faults.
struct WccOptions {
  TlavConfig engine;
  DirectionConfig direction;
};

WccResult Wcc(const Graph& g, const WccOptions& options);
WccResult Wcc(const Graph& g, const TlavConfig& config = {});

}  // namespace gal

#endif  // GAL_TLAV_ALGOS_WCC_H_
