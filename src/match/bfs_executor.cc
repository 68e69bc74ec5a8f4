#include "match/bfs_executor.h"

#include <algorithm>

#include "common/timer.h"
#include "match/join.h"

namespace gal {
namespace {

struct JoinContext {
  const MatchPlan* plan;
  const CandidateJoin* join;
  BfsMatchResult* result;
  // The executor is serial and each ExtendPartial call consumes the
  // join scratch before returning, so one is enough.
  JoinScratch scratch;
};

uint64_t PartialBytes(size_t depth) {
  return depth * sizeof(VertexId) + sizeof(std::vector<VertexId>);
}

/// Replaces `out` with the valid extensions of `partial` at `position`.
void ExtendPartial(JoinContext& ctx,
                   const std::vector<VertexId>& partial, uint32_t position,
                   std::vector<VertexId>& out) {
  // Every local candidate is one search node, as in the DFS executor.
  ctx.join->LocalCandidates(position, partial, out, ctx.scratch);
  ctx.result->stats.search_nodes += out.size();
  std::erase_if(out, [&](VertexId v) {
    return !ctx.join->Admits(position, partial, v);
  });
}

/// DFS completion of one partial match (hybrid fallback).
void DfsFinish(JoinContext& ctx, std::vector<VertexId>& partial,
               uint32_t position) {
  const uint32_t k = static_cast<uint32_t>(ctx.plan->order.size());
  if (position == k) {
    ctx.result->stats.matches++;
    ctx.result->dfs_fallback_matches++;
    return;
  }
  std::vector<VertexId> extensions;
  ExtendPartial(ctx, partial, position, extensions);
  for (VertexId v : extensions) {
    partial.push_back(v);
    DfsFinish(ctx, partial, position + 1);
    partial.pop_back();
  }
}

}  // namespace

BfsMatchResult BfsSubgraphMatch(const Graph& data, const Graph& query,
                                const BfsMatchOptions& options) {
  Timer timer;
  BfsMatchResult result;
  CandidateSets candidates = options.match.nlf_filter
                                 ? NlfFilter(data, query)
                                 : LdfFilter(data, query);
  if (options.match.refine_candidates) {
    RefineCandidates(data, query, &candidates);
  }
  result.plan = BuildPlan(query, candidates, options.match.order,
                          options.match.symmetry_breaking);
  result.stats.candidate_total = candidates.TotalSize();

  const CandidateJoin join(data, result.plan, candidates,
                           options.match.induced);
  JoinContext ctx{&result.plan, &join, &result, /*scratch=*/{}};
  const uint32_t k = query.NumVertices();

  // Level 0: candidates of the first ordered query vertex.
  std::vector<std::vector<VertexId>> frontier;
  for (VertexId v : candidates.candidates[result.plan.order[0]]) {
    result.stats.search_nodes++;
    frontier.push_back({v});
  }
  uint64_t current_bytes = frontier.size() * PartialBytes(1);
  result.peak_partial_matches = frontier.size();
  result.peak_bytes = current_bytes;

  std::vector<VertexId> extensions;
  for (uint32_t position = 1; position < k; ++position) {
    std::vector<std::vector<VertexId>> next;
    uint64_t next_bytes = 0;
    for (std::vector<VertexId>& partial : frontier) {
      ExtendPartial(ctx, partial, position, extensions);
      for (VertexId v : extensions) {
        const uint64_t bytes = PartialBytes(position + 1);
        if (options.memory_budget_bytes != 0 &&
            current_bytes + next_bytes + bytes >
                options.memory_budget_bytes) {
          switch (options.policy) {
            case MemoryPolicy::kStrict:
              result.budget_exceeded = true;
              result.stats.wall_seconds = timer.ElapsedSeconds();
              return result;
            case MemoryPolicy::kSpill:
              result.spilled_bytes += bytes;
              break;
            case MemoryPolicy::kHybridDfs: {
              std::vector<VertexId> extended = partial;
              extended.push_back(v);
              DfsFinish(ctx, extended, position + 1);
              continue;
            }
          }
        }
        std::vector<VertexId> extended = partial;
        extended.push_back(v);
        if (position + 1 == k) {
          result.stats.matches++;
        } else {
          next_bytes += bytes;
          next.push_back(std::move(extended));
        }
      }
    }
    result.peak_partial_matches =
        std::max<uint64_t>(result.peak_partial_matches,
                           frontier.size() + next.size());
    result.peak_bytes = std::max(result.peak_bytes, current_bytes + next_bytes);
    frontier = std::move(next);
    current_bytes = next_bytes;
    if (frontier.empty() && position + 1 < k) break;
  }
  // Special case: single-vertex query — every candidate is a match.
  if (k == 1) result.stats.matches = frontier.size();

  result.stats.wall_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace gal
