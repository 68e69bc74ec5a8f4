#include "match/bfs_executor.h"

#include <algorithm>

#include "common/timer.h"
#include "graph/intersect.h"

namespace gal {
namespace {

struct JoinContext {
  const Graph* data;
  const MatchPlan* plan;
  const CandidateSets* candidates;
  BfsMatchResult* result;
  bool induced = false;
  // Reused across ExtendPartial calls: decode rows for the adaptive
  // intersection plus the cand ∩ N(anchor) result. The executor is
  // serial, and `joined` is fully consumed before any nested extension,
  // so one of each is enough.
  NeighborScratch scratch;
  std::vector<VertexId> joined;
};

uint64_t PartialBytes(size_t depth) {
  return depth * sizeof(VertexId) + sizeof(std::vector<VertexId>);
}

bool RestrictionsOk(const MatchPlan& plan,
                    const std::vector<VertexId>& mapped, uint32_t position,
                    VertexId v) {
  for (const auto& [lo, hi] : plan.order_restrictions) {
    const uint32_t later = std::max(lo, hi);
    if (later != position) continue;
    const VertexId earlier_v = mapped[std::min(lo, hi)];
    if (later == hi ? !(earlier_v < v) : !(v < earlier_v)) return false;
  }
  return true;
}

/// Emits the valid extensions of `partial` at `position`.
void ExtendPartial(JoinContext& ctx,
                   const std::vector<VertexId>& partial, uint32_t position,
                   std::vector<VertexId>& out) {
  out.clear();
  const std::vector<uint32_t>& backward =
      ctx.plan->backward_neighbors[position];
  const std::vector<VertexId>& cand =
      ctx.candidates->candidates[ctx.plan->order[position]];
  auto accept = [&](VertexId v) {
    ctx.result->stats.search_nodes++;
    if (std::find(partial.begin(), partial.end(), v) != partial.end()) return;
    if (!RestrictionsOk(*ctx.plan, partial, position, v)) return;
    if (ctx.induced) {
      for (uint32_t j : ctx.plan->backward_nonneighbors[position]) {
        if (ctx.data->HasEdge(partial[j], v)) return;
      }
    }
    out.push_back(v);
  };
  if (backward.empty()) {
    for (VertexId v : cand) accept(v);
    return;
  }
  // cand ∩ N(anchor) through the shared adaptive intersection (merge or
  // gallop by skew) instead of per-neighbor binary_search. Members come
  // out ascending, so accept() sees the same vertices in the same order
  // and search_nodes stays bit-identical.
  const VertexId anchor = partial[backward[0]];
  IntersectInto(cand, *ctx.data, anchor, ctx.joined, ctx.scratch);
  for (VertexId v : ctx.joined) {
    bool joins = true;
    for (size_t b = 1; b < backward.size(); ++b) {
      if (!ctx.data->HasEdge(partial[backward[b]], v)) {
        joins = false;
        break;
      }
    }
    if (joins) accept(v);
  }
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

  JoinContext ctx{&data, &result.plan, &candidates, &result,
                  options.match.induced, /*scratch=*/{}, /*joined=*/{}};
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
