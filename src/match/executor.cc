#include "match/executor.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "common/timer.h"
#include "match/join.h"

namespace gal {
namespace {

struct SearchShared {
  const MatchPlan* plan;
  const CandidateJoin* join;
  uint64_t limit;
  bool collect;
  uint32_t split_depth;
  /// Matches found so far, kept only when `limit` != 0: the early stop
  /// is the one reader that needs a global count.
  std::atomic<uint64_t> matches{0};
  std::mutex out_mu;
  std::vector<std::vector<VertexId>> collected;

  bool LimitReached() const {
    return limit != 0 && matches.load(std::memory_order_relaxed) >= limit;
  }
};

/// One engine thread's DFS state, reused by every task the thread runs
/// (a task runs to completion before its thread takes the next one).
/// Cache-line aligned so the tallies of neighboring threads never share
/// a line.
struct alignas(64) SearchState {
  explicit SearchState(uint32_t k) : mapped(k, kInvalidVertex), local_at(k) {}

  /// The partial mapping, by plan position.
  std::vector<VertexId> mapped;
  /// Local candidates per plan position. The loop over them spans the
  /// recursive extend calls, so each depth owns its buffer; the join
  /// scratch is consumed inside one LocalCandidates call, so one
  /// suffices.
  std::vector<std::vector<VertexId>> local_at;
  JoinScratch scratch;
  uint64_t search_nodes = 0;
  uint64_t matches = 0;
};

/// A shippable unit of search: the mapped plan-position prefix, with the
/// *last* vertex still unvalidated (injectivity / restrictions / induced
/// checks run where the task runs, so split and unsplit executions visit
/// bit-identical search trees). Roots are prefixes of length 1.
using PrefixTask = std::vector<VertexId>;

using MatchContext = TaskEngine<PrefixTask>::Context;

void Backtrack(SearchShared& shared, SearchState& state, uint32_t position,
               MatchContext& ctx);

/// The per-candidate step: counts the search node, validates v at
/// `position`, and recurses. Runs either inline or as the first step of
/// a stolen prefix task — identically in both cases.
void TryVertex(SearchShared& shared, SearchState& state, uint32_t position,
               VertexId v, MatchContext& ctx) {
  ++state.search_nodes;
  if (!shared.join->Admits(position, state.mapped, v)) return;
  state.mapped[position] = v;
  Backtrack(shared, state, position + 1, ctx);
}

void Backtrack(SearchShared& shared, SearchState& state, uint32_t position,
               MatchContext& ctx) {
  if (shared.LimitReached()) return;
  const uint32_t k = static_cast<uint32_t>(shared.plan->order.size());

  if (position == k) {
    ++state.matches;
    if (shared.limit != 0) {
      shared.matches.fetch_add(1, std::memory_order_relaxed);
    }
    if (shared.collect) {
      std::lock_guard<std::mutex> lock(shared.out_mu);
      shared.collected.push_back(state.mapped);
    }
    return;
  }

  // Adaptive prefix splitting (the STMatch/T-DFS mechanism): at shallow
  // positions, when thieves are parked hungry, ship the extension as an
  // engine task (prefix + unvalidated candidate) instead of recursing —
  // a hub-rooted subtree then spreads over idle workers instead of
  // serializing one. Never split the leaf position: the spawn would
  // cost more than the remaining work.
  const bool may_split = position <= shared.split_depth && position + 1 < k;
  // The join yields each local candidate once, ascending, so the loop
  // visits the same vertices in the same order at any thread count and
  // search_nodes stays deterministic.
  std::vector<VertexId>& local = state.local_at[position];
  shared.join->LocalCandidates(position, state.mapped, local, state.scratch);
  for (VertexId v : local) {
    if (shared.LimitReached()) return;
    if (may_split && ctx.StealPressure()) {
      PrefixTask child(state.mapped.begin(),
                       state.mapped.begin() + position);
      child.push_back(v);
      ctx.Spawn(std::move(child));
      continue;
    }
    TryVertex(shared, state, position, v, ctx);
  }
}

}  // namespace

MatchResult SubgraphMatch(const Graph& data, const Graph& query,
                          const MatchOptions& options, bool collect) {
  Timer timer;
  MatchResult result;
  CandidateSets candidates = NlfFilter(data, query);
  if (options.refine_candidates) {
    RefineCandidates(data, query, &candidates);
  }
  result.plan = BuildPlan(query, candidates, options.order,
                          options.symmetry_breaking);
  const CandidateJoin join(data, result.plan, candidates, options.induced);

  SearchShared shared;
  shared.plan = &result.plan;
  shared.join = &join;
  shared.limit = options.limit;
  shared.collect = collect;
  shared.split_depth = options.split_depth;

  // Root tasks: one per candidate of the first ordered query vertex,
  // each a length-1 unvalidated prefix.
  std::vector<PrefixTask> roots;
  roots.reserve(candidates.candidates[result.plan.order[0]].size());
  for (VertexId v : candidates.candidates[result.plan.order[0]]) {
    roots.push_back({v});
  }

  TaskEngine<PrefixTask> engine(options.engine);
  std::vector<SearchState> states(engine.num_threads(),
                                  SearchState(query.NumVertices()));
  TaskEngineStats task_stats = engine.Run(
      std::move(roots),
      [&shared, &states](PrefixTask& prefix, MatchContext& ctx) {
        if (shared.LimitReached()) return;
        SearchState& state = states[ctx.thread_id()];
        const uint32_t position = static_cast<uint32_t>(prefix.size()) - 1;
        std::copy(prefix.begin(), prefix.end() - 1, state.mapped.begin());
        TryVertex(shared, state, position, prefix[position], ctx);
      });

  for (const SearchState& state : states) {
    result.stats.matches += state.matches;
    result.stats.search_nodes += state.search_nodes;
  }
  if (options.limit != 0) {
    result.stats.matches = std::min(result.stats.matches, options.limit);
  }
  result.stats.candidate_total = candidates.TotalSize();
  result.stats.task_stats = task_stats;
  result.stats.wall_seconds = timer.ElapsedSeconds();
  result.matches = std::move(shared.collected);
  if (options.limit != 0 && result.matches.size() > options.limit) {
    result.matches.resize(options.limit);
  }
  return result;
}

bool HasSubgraphMatch(const Graph& data, const Graph& query,
                      const MatchOptions& options) {
  MatchOptions limited = options;
  limited.limit = 1;
  return SubgraphMatch(data, query, limited).stats.matches > 0;
}

}  // namespace gal
