#ifndef GAL_OOC_OOC_ALGOS_H_
#define GAL_OOC_OOC_ALGOS_H_

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "ooc/sharded_graph.h"
#include "tlag/task_engine.h"

namespace gal {

/// What one out-of-core run cost: the cache traffic it caused (deltas
/// over the store's counters, so back-to-back runs on one store don't
/// bleed into each other), host wall time, and the one round it charged
/// the store's disk-priced VirtualClock — `modeled_io_seconds` is the
/// bytes/bandwidth + latency·loads share, the number that grows as the
/// budget shrinks while results stay bit-identical.
struct OocStats {
  uint32_t supersteps = 0;
  uint64_t shard_loads = 0;
  uint64_t shard_load_bytes = 0;
  uint64_t cache_hits = 0;
  uint64_t evictions = 0;
  uint64_t peak_resident_bytes = 0;  // store-lifetime gauge; never > budget
  uint64_t budget_bytes = 0;         // 0 = unlimited
  double wall_seconds = 0.0;
  double modeled_io_seconds = 0.0;
  double modeled_seconds = 0.0;      // compute + modeled I/O
  StageTimingStat load_timings;      // store-lifetime shard-load spans
};

struct OocPageRankOptions {
  uint32_t iterations = 20;
  double damping = 0.85;
  /// BSP workers (0 = ResolveTaskThreads default); GAL_TASK_THREADS
  /// still caps the host threads that run them.
  uint32_t num_threads = 0;
};

struct OocPageRankResult {
  std::vector<double> ranks;  // original-id order, sums to ~1
  OocStats stats;
};

/// PageRank(g) with the store as the engine's neighbor source, over its
/// shard-aligned placement and with no fault plan: each worker sweeps
/// its shards in ascending id, one pin per shard per sending superstep.
/// Ranks are bit-identical at any memory budget and thread count.
OocPageRankResult OocPageRank(const ShardedGraph& g,
                              const OocPageRankOptions& options = {});

struct OocWccOptions {
  uint32_t num_threads = 0;  // as in OocPageRankOptions
  uint32_t max_supersteps = UINT32_MAX;
};

struct OocWccResult {
  std::vector<VertexId> component;  // original-id order, canonical labels
  uint32_t num_components = 0;
  OocStats stats;
  Status status;  // InvalidArgument, nothing loaded, on a directed store
};

/// FrontierWcc with the store as its neighbor source, in automatic
/// direction and with no fault plan. A push step reads only the shards
/// that hold frontier vertices, so converged shards are not read; a
/// pull step reads every shard (the store is undirected, so its rows
/// are the in-edges too). Labels are canonicalized like Wcc(), so
/// components are bit-identical to the in-memory run at any
/// budget/thread count. A directed store returns InvalidArgument, with
/// no shard read (write the UndirectedView).
OocWccResult OocWcc(const ShardedGraph& g, const OocWccOptions& options = {});

struct OocTriangleOptions {
  TaskEngineConfig engine;
};

struct OocTriangleResult {
  uint64_t triangles = 0;
  uint64_t intersection_ops = 0;
  OocStats stats;
  TaskEngineStats task_stats;
};

/// Degree-ordered triangle counting on the task engine, one task per
/// shard, over the in-memory counters' OrientedRows: a task orients its
/// shard, then each shard its rows reach (once, ascending), and
/// intersects every row with its targets' rows there. A shard is pinned
/// only while its rows are built: a thread holds at most one pin (a
/// one-shard budget cannot deadlock), a task at most NumShards() pins,
/// and a thread's scratch is two shards' rows. Every IntersectCount sees
/// TaskTriangleCount's operand rows, so triangles AND intersection_ops
/// are identical.
OocTriangleResult OocTriangleCount(const ShardedGraph& g,
                                   const OocTriangleOptions& options = {});

}  // namespace gal

#endif  // GAL_OOC_OOC_ALGOS_H_
