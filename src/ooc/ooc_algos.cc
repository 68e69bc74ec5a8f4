#include "ooc/ooc_algos.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <span>
#include <string>
#include <utility>

#include "cluster/cluster.h"
#include "common/timer.h"
#include "frontier/traversal.h"
#include "graph/components.h"
#include "graph/compressed_csr.h"
#include "tlag/algos/triangles.h"
#include "tlav/algos/pagerank.h"

namespace gal {
namespace {

/// Books one out-of-core job against the store: snapshots the cache
/// counters at construction; Finish charges the job as one round on the
/// store's disk clock (host wall time plus the job's bytes read and
/// written, and its loads and writes) and folds the deltas into an
/// OocStats.
class OocRunTracker {
 public:
  explicit OocRunTracker(const ShardedGraph& g)
      : g_(g), start_(g.cache().Stats()) {}

  /// Books a job-private shard set: its cache's traffic, with its peak
  /// counted on top of the `resident_beside` bytes the store's cache held
  /// meanwhile, and the `files` it wrote, `bytes` in all.
  void AddPrivateSet(const ShardCacheStats& cache, uint64_t resident_beside,
                     uint64_t files, uint64_t bytes) {
    extra_ = cache;
    extra_.peak_resident_bytes += resident_beside;
    writes_ = files;
    write_bytes_ = bytes;
  }

  OocStats Finish(uint32_t supersteps) {
    const ShardCacheStats now = g_.cache().Stats();
    OocStats s;
    s.supersteps = supersteps;
    s.shard_loads = now.loads - start_.loads + extra_.loads;
    s.shard_load_bytes =
        now.bytes_loaded - start_.bytes_loaded + extra_.bytes_loaded;
    s.cache_hits = now.hits - start_.hits + extra_.hits;
    s.evictions = now.evictions - start_.evictions + extra_.evictions;
    s.peak_resident_bytes =
        std::max(now.peak_resident_bytes, extra_.peak_resident_bytes);
    s.shard_writes = writes_;
    s.shard_write_bytes = write_bytes_;
    s.budget_bytes = g_.cache().budget_bytes();
    s.wall_seconds = timer_.ElapsedSeconds();
    s.modeled_seconds = g_.clock().AdvanceRound(
        s.wall_seconds, s.shard_load_bytes + s.shard_write_bytes,
        s.shard_loads + s.shard_writes);
    s.modeled_io_seconds = s.modeled_seconds - s.wall_seconds;
    s.load_timings = g_.cache().LoadTimings();
    return s;
  }

 private:
  const ShardedGraph& g_;
  Timer timer_;
  ShardCacheStats start_;
  ShardCacheStats extra_;
  uint64_t writes_ = 0;
  uint64_t write_bytes_ = 0;
};

/// A job's private shard set next to its store,
/// `<base>.oriented-<pid>-<n>`, unique per job in the process; its files
/// are removed when the guard leaves scope, on every return path.
class PrivateShardSet {
 public:
  explicit PrivateShardSet(const std::string& store_base)
      : base_(store_base + ".oriented-" + std::to_string(::getpid()) + "-" +
              std::to_string(next_id_.fetch_add(1))) {}
  ~PrivateShardSet() { RemoveShardedGraphFiles(base_); }
  PrivateShardSet(const PrivateShardSet&) = delete;
  PrivateShardSet& operator=(const PrivateShardSet&) = delete;

  const std::string& base() const { return base_; }

 private:
  static inline std::atomic<uint64_t> next_id_{0};
  const std::string base_;
};

/// Encodes an oriented block as a shard's delta-varint stream and
/// relative row offsets, and returns its entry count. Oriented rows are
/// strictly ascending, so a gap is stored minus one (delta bias 1).
uint64_t EncodeOrientedShard(const OrientedRows& block,
                             std::vector<uint8_t>& stream,
                             std::vector<uint32_t>& row_offsets) {
  stream.clear();
  row_offsets.assign(1, 0);
  uint64_t entries = 0;
  for (VertexId v = block.begin(); v < block.end(); ++v) {
    const std::span<const VertexId> row = block.Row(v);
    for (size_t i = 0; i < row.size(); ++i) {
      AppendVarint(stream, i == 0 ? row[0] : row[i] - row[i - 1] - 1);
    }
    row_offsets.push_back(static_cast<uint32_t>(stream.size()));
    entries += row.size();
  }
  return entries;
}

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
  result.stats = run.Finish(ranked.stats.supersteps);
  result.status = g.cache().status();
  if (result.status.ok()) result.ranks = std::move(ranked.ranks);
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
  result.status = g.cache().status();
  if (!result.status.ok()) {
    result.component.clear();
    result.num_components = 0;
  }
  return result;
}

OocTriangleResult OocTriangleCount(const ShardedGraph& g,
                                   const OocTriangleOptions& options) {
  OocRunTracker run(g);
  OocTriangleResult result;
  const uint32_t num_shards = g.NumShards();
  TaskEngine<uint32_t> engine(options.engine);
  using Context = TaskEngine<uint32_t>::Context;

  /// Per-thread workspace, cache-line padded like the in-memory state:
  /// two shards' oriented rows, the marks, the shards the task's rows
  /// reach, one oriented shard's encoding, and the thread's writes.
  struct alignas(64) Scratch {
    explicit Scratch(VertexId num_vertices) : marks(num_vertices) {}
    OrientedRows own;
    OrientedRows other;
    MarkedRow marks;
    std::vector<uint8_t> reached;
    std::vector<uint8_t> stream;
    std::vector<uint32_t> row_offsets;
    uint64_t triangles = 0;
    uint64_t ops = 0;
    uint64_t files_written = 0;
    uint64_t bytes_written = 0;
    Status write_status;
  };
  std::vector<Scratch> scratch(engine.num_threads(), Scratch(g.NumVertices()));
  std::vector<uint32_t> shards(num_shards);
  std::iota(shards.begin(), shards.end(), 0);

  // Orient pass: raw shard s is pinned once, oriented, and written to
  // the job's private set. An oriented shard is never larger than its
  // raw shard (fewer entries, and a merged gap's varint is no longer
  // than the gaps it replaces), so the store's budget admits it.
  const PrivateShardSet oriented(g.cache().base_path());
  std::vector<ShardInfo> infos(num_shards);
  const auto orient_task = [&](uint32_t& s, Context& ctx) {
    Scratch& sc = scratch[ctx.thread_id()];
    {
      const PinnedShard pin = g.Pin(s);
      sc.own.Build(pin, g, pin.begin(), pin.end());
    }
    ShardInfo& info = infos[s];
    info.begin = sc.own.begin();
    info.end = sc.own.end();
    info.edge_count = EncodeOrientedShard(sc.own, sc.stream, sc.row_offsets);
    info.adj_bytes = sc.stream.size();
    GAL_CHECK(info.ResidentBytes() <= g.shard(s).ResidentBytes())
        << "oriented shard " << s << " outgrew its raw shard";
    const Status st = WriteShardFile(ShardFileName(oriented.base(), s), s,
                                     sc.stream, sc.row_offsets, info);
    if (!st.ok()) {
      if (sc.write_status.ok()) sc.write_status = st;
      return;
    }
    ++sc.files_written;
    sc.bytes_written += info.ResidentBytes() + kOocShardFooterBytes;
  };
  AddTaskEngineStats(engine.Run(shards, orient_task), &result.task_stats);
  uint64_t files_written = 0, bytes_written = 0;
  result.status = g.cache().status();
  for (const Scratch& sc : scratch) {
    if (result.status.ok()) result.status = sc.write_status;
    files_written += sc.files_written;
    bytes_written += sc.bytes_written;
  }
  if (!result.status.ok()) {
    run.AddPrivateSet(ShardCacheStats{}, 0, files_written, bytes_written);
    result.stats = run.Finish(1);
    return result;
  }

  // Join pass, over the oriented set under the store's budget: the
  // store's cache first frees what it holds unpinned.
  if (g.cache().budget_bytes() != 0) g.cache().DropUnpinned();
  const uint64_t store_resident = g.cache().Stats().resident_bytes;
  ShardCache oriented_cache(oriented.base(), std::move(infos),
                            g.cache().budget_bytes(),
                            g.cache().load_histogram());
  // Decodes oriented shard s into `block`, pinned only while it is read.
  const auto decode = [&oriented_cache](uint32_t s, OrientedRows& block) {
    const PinnedShard pin(&oriented_cache, s, /*delta_bias=*/1);
    block.Decode(pin, pin.begin(), pin.end());
  };
  const auto join_task = [&](uint32_t& s, Context& ctx) {
    Scratch& sc = scratch[ctx.thread_id()];
    decode(s, sc.own);
    sc.reached.assign(num_shards, 0);
    for (VertexId v = sc.own.begin(); v < sc.own.end(); ++v) {
      for (VertexId u : sc.own.Row(v)) sc.reached[g.ShardOf(u)] = 1;
    }
    // Decode each reached shard once, ascending (the task's own block
    // serves itself), and join every row with its targets there: a row
    // is marked once per block that holds some of its targets.
    for (uint32_t t = 0; t < num_shards; ++t) {
      if (sc.reached[t] == 0) continue;
      if (t != s) decode(t, sc.other);
      const OrientedRows& block = t == s ? sc.own : sc.other;
      for (VertexId v = sc.own.begin(); v < sc.own.end(); ++v) {
        sc.triangles += sc.marks.Join(sc.own.Row(v), block, sc.ops);
      }
    }
  };
  AddTaskEngineStats(engine.Run(std::move(shards), join_task),
                     &result.task_stats);

  result.status = oriented_cache.status();
  if (result.status.ok()) {
    for (const Scratch& sc : scratch) {
      result.triangles += sc.triangles;
      result.intersection_ops += sc.ops;
    }
  }
  run.AddPrivateSet(oriented_cache.Stats(), store_resident, files_written,
                    bytes_written);
  // The whole count is one bulk round on the modeled disk.
  result.stats = run.Finish(1);
  return result;
}

}  // namespace gal
