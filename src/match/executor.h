#ifndef GAL_MATCH_EXECUTOR_H_
#define GAL_MATCH_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "match/candidates.h"
#include "match/plan.h"
#include "tlag/task_engine.h"

namespace gal {

/// Options shared by the matching executors.
struct MatchOptions {
  OrderStrategy order = OrderStrategy::kGreedyCost;
  /// When true, apply symmetry-breaking restrictions so each *distinct*
  /// subgraph instance is produced exactly once; when false, every
  /// automorphic image is produced (embedding semantics).
  bool symmetry_breaking = false;
  /// Run iterated edge-consistency refinement on the candidate sets
  /// before enumeration (EGSM-style candidate-graph pruning).
  bool refine_candidates = false;
  /// Induced (exact) subgraph isomorphism: query *non*-edges must map
  /// to data non-edges too. Default is the standard non-induced
  /// semantics (extra data edges allowed).
  bool induced = false;
  /// Stop after this many results (0 = unlimited).
  uint64_t limit = 0;
  /// Adaptive task splitting: while filling plan positions <=
  /// split_depth and other workers are parked hungry
  /// (Context::StealPressure), candidate extensions are spawned as
  /// engine tasks instead of recursed — the STMatch/T-DFS mechanism
  /// that stops a hub-rooted search tree from serializing one core.
  /// 0 restores per-root-only scheduling. Match counts and collected
  /// match *sets* are identical at any thread count or split depth.
  uint32_t split_depth = 2;
  TaskEngineConfig engine;
};

struct MatchStats {
  uint64_t matches = 0;
  /// Candidate vertices tried across the whole search tree — the cost
  /// metric that matching-order optimization shrinks.
  uint64_t search_nodes = 0;
  uint64_t candidate_total = 0;  // Σ |C(u)| after filtering
  double wall_seconds = 0.0;
  TaskEngineStats task_stats;
};

struct MatchResult {
  MatchStats stats;
  /// Collected matches (query order positions -> data vertices, i.e.
  /// matches[i][j] hosts plan.order[j]); filled only when collect=true.
  std::vector<std::vector<VertexId>> matches;
  MatchPlan plan;
};

/// Depth-first backtracking subgraph isomorphism (the STMatch/T-DFS-
/// style kernel): per-root tasks on the work-stealing engine, O(depth)
/// state per worker. Finds *induced-free* (standard non-induced)
/// matches: all query edges must exist; extra data edges are fine.
MatchResult SubgraphMatch(const Graph& data, const Graph& query,
                          const MatchOptions& options = {},
                          bool collect = false);

/// Convenience: does at least one match exist?
bool HasSubgraphMatch(const Graph& data, const Graph& query,
                      const MatchOptions& options = {});

}  // namespace gal

#endif  // GAL_MATCH_EXECUTOR_H_
