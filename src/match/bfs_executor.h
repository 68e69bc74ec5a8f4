#ifndef GAL_MATCH_BFS_EXECUTOR_H_
#define GAL_MATCH_BFS_EXECUTOR_H_

#include "graph/graph.h"
#include "match/executor.h"
#include "tlag/bfs_engine.h"

namespace gal {

/// BFS (join-style) subgraph matching: partial matches are materialized
/// level by level, one join per plan position — the execution model of
/// the GPU systems the survey covers (GSI, cuTS), which trade memory for
/// coalesced access. The levels are BfsExtensionEngine's, so its memory
/// policy is the systems' response to frontier explosion: strict
/// failure, host-memory spill (PBE/VSGM/G2-AIMD partition-and-buffer),
/// or DFS fallback (EGSM hybrid).
struct BfsMatchOptions {
  MatchOptions match;
  BfsEngineConfig bfs;
};

struct BfsMatchResult {
  MatchStats stats;
  /// Partial matches are the engine's embeddings: peak_materialized
  /// counts partials, dfs_fallback_embeddings matches finished by DFS.
  BfsEngineStats bfs;
  MatchPlan plan;
};

BfsMatchResult BfsSubgraphMatch(const Graph& data, const Graph& query,
                                const BfsMatchOptions& options = {});

}  // namespace gal

#endif  // GAL_MATCH_BFS_EXECUTOR_H_
