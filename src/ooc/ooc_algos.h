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
/// bleed into each other, plus the traffic of a job-private shard set),
/// the shard files it wrote, host wall time, and the one round it
/// charged the store's disk-priced VirtualClock — `modeled_io_seconds`
/// is the (read + written bytes)/bandwidth + latency·(loads + writes)
/// share, the number that grows as the budget shrinks while results
/// stay bit-identical.
struct OocStats {
  uint32_t supersteps = 0;
  uint64_t shard_loads = 0;
  uint64_t shard_load_bytes = 0;
  uint64_t cache_hits = 0;
  uint64_t evictions = 0;
  uint64_t shard_writes = 0;         // files of a job-private set
  uint64_t shard_write_bytes = 0;    // their bytes, footers included
  /// Store-lifetime gauge, and a private set's peak on top of what the
  /// store held beside it; never > budget.
  uint64_t peak_resident_bytes = 0;
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
  Status status;  // the store's failed shard load (IOError), ranks empty
};

/// PageRank(g) with the store as the engine's neighbor source, over its
/// shard-aligned placement and with no fault plan: each worker sweeps
/// its shards in ascending id, one pin per shard per sending superstep.
/// Ranks are bit-identical at any memory budget and thread count. When
/// a shard file changed or vanished after Open, the job returns the
/// store cache's status() (ShardCache).
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
  /// InvalidArgument, nothing loaded, on a directed store; the store's
  /// failed shard load (IOError), component empty, as in OocPageRank.
  Status status;
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
  TaskEngineStats task_stats;  // both engine passes, folded
  /// IOError, counts zero, when a shard load of the store or of the
  /// private set fails (as in OocPageRank), else when a private write
  /// fails.
  Status status;
};

/// Degree-ordered triangle counting on the task engine over the
/// in-memory counters' OrientedRows and MarkedRow join, in two passes of
/// one task per shard. The orient pass pins raw shard s once, orients
/// it, and writes it (delta-varint, bias 1) to a set private to the job,
/// `<base>.oriented-<pid>-<n>` next to the store. The join pass runs
/// over a private ShardCache of that set with the store's budget (the
/// store's cache first drops its unpinned shards): a task decodes its
/// own oriented shard, then each shard its rows reach (once, ascending),
/// and joins every row with its targets' rows there. So each raw shard
/// is pinned once per job, a task pins at most NumShards() oriented
/// shards, a thread holds at most one pin (a one-shard budget cannot
/// deadlock), and a thread's scratch is two shards' oriented rows plus
/// |V| bytes of marks. Every oriented edge probes the target row
/// TaskTriangleCount's does, so triangles AND intersection_ops are
/// identical. The private files are removed on every return; a failed
/// write returns its Status.
OocTriangleResult OocTriangleCount(const ShardedGraph& g,
                                   const OocTriangleOptions& options = {});

}  // namespace gal

#endif  // GAL_OOC_OOC_ALGOS_H_
