#include "match/bfs_executor.h"

#include <vector>

#include "common/timer.h"
#include "match/join.h"

namespace gal {

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
  // The roots are the candidates of the first plan position. Each one,
  // like every local candidate below, is one search node, as in the DFS
  // executor.
  const std::vector<VertexId>& roots =
      candidates.candidates[result.plan.order[0]];
  result.stats.search_nodes = roots.size();
  // The engine is serial and each extension consumes the join scratch
  // before returning, so one is enough.
  JoinScratch scratch;
  result.bfs = BfsExtensionEngine(options.bfs).Run(
      roots, query.NumVertices(),
      [&](const Embedding& partial, std::vector<VertexId>& out) {
        const uint32_t position = static_cast<uint32_t>(partial.size());
        join.LocalCandidates(position, partial, out, scratch);
        result.stats.search_nodes += out.size();
        std::erase_if(out, [&](VertexId v) {
          return !join.Admits(position, partial, v);
        });
      },
      [&result](const Embedding&) { ++result.stats.matches; });
  result.stats.wall_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace gal
