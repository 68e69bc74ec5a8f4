#include "tlag/algos/cliques.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "graph/intersect.h"
#include "graph/kcore.h"

namespace gal {
namespace {

/// Maps a clique's internal vertex ids back to the caller's original id
/// space, re-sorted (the permutation is not order-preserving).
std::vector<VertexId> CliqueToOriginal(const Graph& g,
                                       std::vector<VertexId> clique) {
  if (!g.IsReordered()) return clique;
  for (VertexId& v : clique) v = g.OriginalId(v);
  std::sort(clique.begin(), clique.end());
  return clique;
}

/// One Bron–Kerbosch search-tree node, shippable between workers.
struct BkTask {
  std::vector<VertexId> r;  // current clique
  std::vector<VertexId> p;  // candidates (sorted)
  std::vector<VertexId> x;  // excluded (sorted)
  uint32_t depth = 0;
};

struct BkShared {
  const Graph* g;
  const MaximalCliqueOptions* options;
  bool collect;
  std::atomic<uint64_t> count{0};
  std::atomic<uint32_t> largest{0};
  std::mutex out_mu;
  std::vector<std::vector<VertexId>> cliques;

  void Report(const std::vector<VertexId>& clique) {
    if (clique.size() < options->min_size) return;
    count.fetch_add(1, std::memory_order_relaxed);
    uint32_t cur = largest.load(std::memory_order_relaxed);
    while (clique.size() > cur &&
           !largest.compare_exchange_weak(
               cur, static_cast<uint32_t>(clique.size()))) {
    }
    if (collect) {
      std::vector<VertexId> sorted = clique;
      std::sort(sorted.begin(), sorted.end());
      std::lock_guard<std::mutex> lock(out_mu);
      cliques.push_back(std::move(sorted));
    }
  }
};

/// Chooses the pivot maximizing |P ∩ N(u)| over u in P ∪ X (Tomita).
/// `scratch` is the calling thread's decode buffer (compressed layouts).
VertexId ChoosePivot(const Graph& g, const std::vector<VertexId>& p,
                     const std::vector<VertexId>& x,
                     NeighborScratch& scratch) {
  VertexId pivot = kInvalidVertex;
  size_t best = 0;
  auto consider = [&](VertexId u) {
    const uint64_t overlap = IntersectCount(p, g, u, scratch);
    if (pivot == kInvalidVertex || overlap > best) {
      best = overlap;
      pivot = u;
    }
  };
  for (VertexId u : p) consider(u);
  for (VertexId u : x) consider(u);
  return pivot;
}

void BkRecurse(BkTask& task, BkShared& shared, NeighborScratch& scratch,
               TaskEngine<BkTask>::Context& ctx) {
  const Graph& g = *shared.g;
  if (task.p.empty() && task.x.empty()) {
    shared.Report(task.r);
    return;
  }
  if (task.p.empty()) return;

  const VertexId pivot = ChoosePivot(g, task.p, task.x, scratch);
  const auto pivot_nbrs = NeighborSetInto(g, pivot, scratch.a);
  // Branch on P \ N(pivot).
  std::vector<VertexId> branch_vertices;
  std::set_difference(task.p.begin(), task.p.end(), pivot_nbrs.begin(),
                      pivot_nbrs.end(), std::back_inserter(branch_vertices));

  for (VertexId v : branch_vertices) {
    // pivot_nbrs is consumed; scratch.a is free for v's row. The row is
    // re-decoded per iteration because the recursion below reuses the
    // scratch — correctness over decode thrift at branch nodes.
    const auto nbrs = NeighborSetInto(g, v, scratch.a);
    BkTask child;
    child.r = task.r;
    child.r.push_back(v);
    child.p = Intersect(task.p, nbrs);
    child.x = Intersect(task.x, nbrs);
    child.depth = task.depth + 1;

    // Task splitting: shallow branches become engine tasks so idle
    // workers can steal them; deep ones recurse locally (cheap).
    if (child.depth <= shared.options->split_depth && ctx.StealPressure()) {
      ctx.Spawn(std::move(child));
    } else {
      BkRecurse(child, shared, scratch, ctx);
    }
    // Move v from P to X.
    task.p.erase(std::lower_bound(task.p.begin(), task.p.end(), v));
    task.x.insert(std::lower_bound(task.x.begin(), task.x.end(), v), v);
  }
}

// --- maximum clique ---------------------------------------------------------

struct McTask {
  std::vector<VertexId> r;
  std::vector<VertexId> p;  // sorted candidates
};

struct McShared {
  const Graph* g;
  std::atomic<uint32_t> best_size{0};
  std::mutex best_mu;
  std::vector<VertexId> best_clique;
  std::atomic<uint64_t> branches{0};
  std::atomic<uint64_t> pruned{0};

  void Offer(const std::vector<VertexId>& clique) {
    uint32_t cur = best_size.load();
    if (clique.size() <= cur) return;
    std::lock_guard<std::mutex> lock(best_mu);
    if (clique.size() > best_clique.size()) {
      best_clique = clique;
      best_size.store(static_cast<uint32_t>(clique.size()));
    }
  }
};

/// Greedy coloring of P (in given order): the number of colors bounds
/// the largest clique inside P. Returns per-vertex color (1-based),
/// aligned with p's order.
uint32_t ColorBound(const Graph& g, const std::vector<VertexId>& p,
                    std::vector<uint32_t>& colors, NeighborScratch& scratch) {
  colors.assign(p.size(), 0);
  uint32_t num_colors = 0;
  for (size_t i = 0; i < p.size(); ++i) {
    // Lowest color not used by earlier neighbors. One row decode per i
    // (instead of an O(d) HasEdge probe per (i,j) pair on compressed
    // layouts); membership stays a binary search either way.
    const auto nbrs = g.NeighborsInto(p[i], scratch.b);
    uint64_t used = 0;  // bitmask for first 64 colors
    for (size_t j = 0; j < i; ++j) {
      if (colors[j] <= 64 &&
          std::binary_search(nbrs.begin(), nbrs.end(), p[j])) {
        used |= uint64_t{1} << (colors[j] - 1);
      }
    }
    uint32_t c = 1;
    while (c <= 64 && (used & (uint64_t{1} << (c - 1)))) ++c;
    colors[i] = c;
    num_colors = std::max(num_colors, c);
  }
  return num_colors;
}

void McRecurse(McTask& task, McShared& shared, NeighborScratch& scratch,
               TaskEngine<McTask>::Context& ctx) {
  const Graph& g = *shared.g;
  shared.branches.fetch_add(1, std::memory_order_relaxed);
  if (task.p.empty()) {
    shared.Offer(task.r);
    return;
  }
  std::vector<uint32_t> colors;
  ColorBound(g, task.p, colors, scratch);
  // Process candidates in decreasing color: classic Tomita ordering —
  // once r.size() + color <= best, every remaining candidate is pruned.
  std::vector<size_t> order(task.p.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return colors[a] > colors[b]; });

  std::vector<VertexId> p = task.p;
  for (size_t idx : order) {
    const VertexId v = task.p[idx];
    if (task.r.size() + colors[idx] <= shared.best_size.load()) {
      shared.pruned.fetch_add(1, std::memory_order_relaxed);
      return;  // all later candidates have <= this color
    }
    McTask child;
    child.r = task.r;
    child.r.push_back(v);
    IntersectInto(p, g, v, child.p, scratch);
    if (child.r.size() + child.p.size() > shared.best_size.load()) {
      if (child.p.empty()) {
        shared.Offer(child.r);
      } else {
        McRecurse(child, shared, scratch, ctx);
      }
    } else {
      shared.pruned.fetch_add(1, std::memory_order_relaxed);
    }
    p.erase(std::lower_bound(p.begin(), p.end(), v));
  }
}

}  // namespace

MaximalCliqueResult MaximalCliques(const Graph& g,
                                   const MaximalCliqueOptions& options,
                                   bool collect) {
  BkShared shared;
  shared.g = &g;
  shared.options = &options;
  shared.collect = collect;

  // Degeneracy-ordered root tasks: vertex v with candidates among its
  // later neighbors, excluded among earlier ones — the standard
  // Eppstein–Löffler–Strash decomposition, which also makes root tasks
  // independent (ideal G-thinker tasks).
  DegeneracyResult degen = DegeneracyOrder(g);
  std::vector<uint32_t> pos(g.NumVertices());
  for (uint32_t i = 0; i < degen.order.size(); ++i) pos[degen.order[i]] = i;

  std::vector<BkTask> roots;
  roots.reserve(g.NumVertices());
  std::vector<VertexId> row;
  for (VertexId v : degen.order) {
    BkTask t;
    t.r = {v};
    // The set row is ascending, so P and X come out sorted.
    for (VertexId u : NeighborSetInto(g, v, row)) {
      (pos[u] > pos[v] ? t.p : t.x).push_back(u);
    }
    t.depth = 1;
    roots.push_back(std::move(t));
  }

  // One decode scratch per engine thread (compressed layouts); a task
  // only ever touches its own thread's buffers.
  std::vector<NeighborScratch> scratch(
      ResolveTaskThreads(options.engine.num_threads));
  TaskEngine<BkTask> engine(options.engine);
  TaskEngineStats stats = engine.Run(
      std::move(roots),
      [&shared, &scratch](BkTask& task, TaskEngine<BkTask>::Context& ctx) {
        BkRecurse(task, shared, scratch[ctx.thread_id()], ctx);
      });

  MaximalCliqueResult result;
  result.count = shared.count.load();
  result.largest = shared.largest.load();
  result.cliques = std::move(shared.cliques);
  for (std::vector<VertexId>& clique : result.cliques) {
    clique = CliqueToOriginal(g, std::move(clique));
  }
  result.task_stats = stats;
  return result;
}

MaximumCliqueResult MaximumClique(const Graph& g,
                                  const TaskEngineConfig& config) {
  McShared shared;
  shared.g = &g;

  DegeneracyResult degen = DegeneracyOrder(g);
  std::vector<uint32_t> pos(g.NumVertices());
  for (uint32_t i = 0; i < degen.order.size(); ++i) pos[degen.order[i]] = i;

  std::vector<McTask> roots;
  std::vector<VertexId> row;
  for (VertexId v : degen.order) {
    McTask t;
    t.r = {v};
    for (VertexId u : NeighborSetInto(g, v, row)) {
      if (pos[u] > pos[v]) t.p.push_back(u);
    }
    roots.push_back(std::move(t));
  }

  std::vector<NeighborScratch> scratch(ResolveTaskThreads(config.num_threads));
  TaskEngine<McTask> engine(config);
  TaskEngineStats stats = engine.Run(
      std::move(roots), [&shared, &scratch](McTask& task,
                                            TaskEngine<McTask>::Context& ctx) {
        // Root-level bound: skip tasks that cannot beat the incumbent.
        if (task.r.size() + task.p.size() <= shared.best_size.load()) {
          shared.pruned.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        McRecurse(task, shared, scratch[ctx.thread_id()], ctx);
      });

  MaximumCliqueResult result;
  result.size = shared.best_size.load();
  result.clique = CliqueToOriginal(g, shared.best_clique);
  std::sort(result.clique.begin(), result.clique.end());
  result.branches_explored = shared.branches.load();
  result.branches_pruned = shared.pruned.load();
  result.task_stats = stats;
  return result;
}

}  // namespace gal
