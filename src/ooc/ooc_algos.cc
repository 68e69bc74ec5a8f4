#include "ooc/ooc_algos.h"

#include <numeric>
#include <utility>

#include "cluster/cluster.h"
#include "common/timer.h"
#include "frontier/traversal.h"
#include "graph/components.h"
#include "tlag/algos/triangles.h"
#include "tlav/algos/pagerank.h"

namespace gal {
namespace {

/// Books one out-of-core job against the store: snapshots the cache
/// counters at construction; Finish charges the job as one round on the
/// store's disk clock (host wall time plus the job's bytes and loads)
/// and folds the deltas into an OocStats.
class OocRunTracker {
 public:
  explicit OocRunTracker(const ShardedGraph& g)
      : g_(g), start_(g.cache().Stats()) {}

  OocStats Finish(uint32_t supersteps) {
    const ShardCacheStats now = g_.cache().Stats();
    OocStats s;
    s.supersteps = supersteps;
    s.shard_loads = now.loads - start_.loads;
    s.shard_load_bytes = now.bytes_loaded - start_.bytes_loaded;
    s.cache_hits = now.hits - start_.hits;
    s.evictions = now.evictions - start_.evictions;
    s.peak_resident_bytes = now.peak_resident_bytes;
    s.budget_bytes = g_.cache().budget_bytes();
    s.wall_seconds = timer_.ElapsedSeconds();
    s.modeled_seconds = g_.clock().AdvanceRound(
        s.wall_seconds, s.shard_load_bytes, s.shard_loads);
    s.modeled_io_seconds = s.modeled_seconds - s.wall_seconds;
    s.load_timings = g_.cache().LoadTimings();
    return s;
  }

 private:
  const ShardedGraph& g_;
  Timer timer_;
  ShardCacheStats start_;
};

/// An out-of-core job's engine: `num_threads` workers over the store's
/// default placement, and no fault plan.
TlavConfig OocEngineConfig(uint32_t num_threads) {
  TlavConfig config;
  config.num_workers = ResolveTaskThreads(num_threads);
  config.faults = FaultPlan();
  return config;
}

}  // namespace

OocPageRankResult OocPageRank(const ShardedGraph& g,
                              const OocPageRankOptions& options) {
  OocRunTracker run(g);
  PageRankOptions pr;
  pr.iterations = options.iterations;
  pr.damping = options.damping;
  pr.engine = OocEngineConfig(options.num_threads);
  PageRankResult ranked = PageRank(g, pr);
  OocPageRankResult result;
  result.ranks = std::move(ranked.ranks);
  result.stats = run.Finish(ranked.stats.supersteps);
  return result;
}

OocWccResult OocWcc(const ShardedGraph& g, const OocWccOptions& options) {
  OocWccResult result;
  if (g.directed()) {
    result.status = Status::InvalidArgument(
        "OocWcc needs an undirected shard set; write the UndirectedView");
    return result;
  }
  OocRunTracker run(g);
  TlavConfig config = OocEngineConfig(options.num_threads);
  config.max_supersteps = options.max_supersteps;
  TlavStats stats;
  // The in-memory Wcc()'s label rules, so reordered stores report the
  // exact labels the in-memory run does.
  result.component = CanonicalizeComponents(
      g, FrontierWcc(g, config, DirectionConfig{}, stats));
  result.num_components = CountComponents(result.component);
  result.stats = run.Finish(stats.supersteps);
  return result;
}

OocTriangleResult OocTriangleCount(const ShardedGraph& g,
                                   const OocTriangleOptions& options) {
  OocRunTracker run(g);
  OocTriangleResult result;
  const uint32_t threads = ResolveTaskThreads(options.engine.num_threads);

  /// Per-thread workspace, cache-line padded like the in-memory state:
  /// two shards' oriented rows, the marks, and the shards the task's
  /// rows reach.
  struct alignas(64) Scratch {
    explicit Scratch(VertexId num_vertices) : marks(num_vertices) {}
    OrientedRows own;
    OrientedRows other;
    MarkedRow marks;
    std::vector<uint8_t> reached;
    uint64_t triangles = 0;
    uint64_t ops = 0;
  };
  std::vector<Scratch> scratch(threads, Scratch(g.NumVertices()));

  // Orients shard s into `block`, pinned only while its rows are built.
  const auto orient = [&g](uint32_t s, OrientedRows& block) {
    const PinnedShard pin = g.Pin(s);
    block.Build(pin, g, pin.begin(), pin.end());
  };

  std::vector<uint32_t> tasks(g.NumShards());
  std::iota(tasks.begin(), tasks.end(), 0);
  TaskEngine<uint32_t> engine(options.engine);
  result.task_stats = engine.Run(
      std::move(tasks), [&](uint32_t& s, TaskEngine<uint32_t>::Context& ctx) {
        Scratch& sc = scratch[ctx.thread_id()];
        orient(s, sc.own);
        sc.reached.assign(g.NumShards(), 0);
        for (VertexId v = sc.own.begin(); v < sc.own.end(); ++v) {
          for (VertexId u : sc.own.Row(v)) sc.reached[g.ShardOf(u)] = 1;
        }
        // Orient each reached shard once, ascending (the task's own block
        // serves itself), and join every row with its targets there: a
        // row is marked once per block that holds some of its targets.
        for (uint32_t t = 0; t < g.NumShards(); ++t) {
          if (sc.reached[t] == 0) continue;
          if (t != s) orient(t, sc.other);
          const OrientedRows& block = t == s ? sc.own : sc.other;
          for (VertexId v = sc.own.begin(); v < sc.own.end(); ++v) {
            sc.triangles += sc.marks.Join(sc.own.Row(v), block, sc.ops);
          }
        }
      });

  for (const Scratch& sc : scratch) {
    result.triangles += sc.triangles;
    result.intersection_ops += sc.ops;
  }
  // The whole count is one bulk round on the modeled disk.
  result.stats = run.Finish(1);
  return result;
}

}  // namespace gal
