#include "tlag/algos/triangles.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/round_barrier.h"
#include "common/timer.h"
#include "graph/intersect.h"
#include "partition/partition.h"

namespace gal {
namespace {

/// Per-worker triangle/ops tally, padded to a cache line so concurrent
/// workers never share one — the ledger idiom; folded once at the end.
struct alignas(64) WorkerTally {
  uint64_t triangles = 0;
  uint64_t ops = 0;
};

/// Chunk-rounds a run under a fault plan slices its vertices into (fewer
/// when the graph has too few vertices to fill them).
constexpr uint32_t kChunkRounds = 16;

/// Folds one round's engine stats into the run's: counters and
/// per-thread busy time add up; the span summaries describe one engine
/// pass, so a run of several rounds keeps none.
void AddRoundStats(const TaskEngineStats& round, TaskEngineStats* run) {
  if (run->busy_seconds.empty()) {
    *run = round;
    return;
  }
  run->tasks_executed += round.tasks_executed;
  run->tasks_spawned += round.tasks_spawned;
  run->steals += round.steals;
  run->failed_steal_attempts += round.failed_steal_attempts;
  run->parks += round.parks;
  run->wall_seconds += round.wall_seconds;
  for (size_t t = 0; t < round.busy_seconds.size(); ++t) {
    run->busy_seconds[t] += round.busy_seconds[t];
  }
  run->steal_latency = StageTimingStat{};
  run->park_time = StageTimingStat{};
  run->queue_depth = StageTimingStat{};
}

}  // namespace

TriangleCountResult SerialTriangleCount(const Graph& g) {
  Timer timer;
  TriangleCountResult result;
  OrientedRows oriented;
  oriented.Build(g, g, 0, g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const std::span<const VertexId> row = oriented.Row(v);
    for (VertexId u : row) {
      result.triangles +=
          IntersectCount(row, oriented.Row(u), &result.intersection_ops);
    }
  }
  result.wall_seconds = timer.ElapsedSeconds();
  return result;
}

TriangleCountResult TaskTriangleCount(const Graph& g,
                                      const TaskEngineConfig& config) {
  Timer timer;
  TriangleCountResult result;
  OrientedRows oriented;
  oriented.Build(g, g, 0, g.NumVertices());
  // One padded tally per engine thread; contention-free during a round,
  // folded into the result's running totals after the engine drains.
  std::vector<WorkerTally> tallies(ResolveTaskThreads(config.num_threads));

  // Simulated-cluster attribution: make sure the runtime has a placement
  // for this graph (hash by default, or whatever a caller pre-installed),
  // and run the job's rounds on the shared barrier. The checkpointed
  // state is the {triangles, ops} running totals: a worker failure
  // replays only the rounds since the last checkpoint, and the
  // order-independent sum keeps the recovered counts bit-identical. (No
  // rebalancing: work-stealing already balances within each round.)
  ClusterRuntime* cluster = config.cluster;
  const VertexPartition* parts = nullptr;
  std::optional<RoundBarrier> barrier;
  if (cluster != nullptr) {
    if (!cluster->has_partition() ||
        cluster->partition().assignment.size() != g.NumVertices()) {
      cluster->InstallPartition(HashPartition(g, cluster->num_workers()));
    }
    parts = &cluster->partition();
    barrier.emplace(cluster, config.faults);
    barrier->Start({[&](BlobWriter& w) {
                      w.Pod(result.triangles);
                      w.Pod(result.intersection_ops);
                    },
                    [&](BlobReader& r) {
                      result.triangles = r.Pod<uint64_t>();
                      result.intersection_ops = r.Pod<uint64_t>();
                    },
                    nullptr, nullptr});
  }

  const auto process = [&](VertexId& v, TaskEngine<VertexId>::Context& ctx) {
    WorkerTally& tally = tallies[ctx.thread_id()];
    const std::span<const VertexId> row = oriented.Row(v);
    if (parts != nullptr) {
      ctx.TouchPartition(parts->assignment[v], row.size_bytes());
    }
    for (VertexId u : row) {
      const std::span<const VertexId> target = oriented.Row(u);
      if (parts != nullptr) {
        ctx.TouchPartition(parts->assignment[u], target.size_bytes());
      }
      tally.triangles += IntersectCount(row, target, &tally.ops);
    }
  };

  // A fault plan on a cluster slices the vertex range into chunk-rounds,
  // so the barrier has somewhere to checkpoint, fail and stretch
  // stragglers; otherwise one round runs every vertex task.
  const VertexId n = g.NumVertices();
  VertexId chunk = n;
  uint32_t num_rounds = 1;
  if (barrier.has_value() && !config.faults.empty()) {
    chunk = (n + kChunkRounds - 1) / kChunkRounds;
    num_rounds = chunk == 0 ? 0 : (n + chunk - 1) / chunk;
  }
  for (uint32_t round = 0; round < num_rounds;) {
    const VertexId begin = round * chunk;
    const VertexId end = std::min<VertexId>(n, begin + chunk);
    std::vector<VertexId> tasks(end - begin);
    std::iota(tasks.begin(), tasks.end(), begin);
    for (WorkerTally& tally : tallies) tally = WorkerTally{};

    TaskEngine<VertexId> engine(config);
    const TaskEngineStats round_stats = engine.Run(std::move(tasks), process);
    for (const WorkerTally& tally : tallies) {
      result.triangles += tally.triangles;
      result.intersection_ops += tally.ops;
    }
    AddRoundStats(round_stats, &result.task_stats);
    if (!barrier.has_value()) break;  // no cluster: one round, no barrier
    // Host thread t ran simulated worker t mod W.
    for (size_t t = 0; t < round_stats.busy_seconds.size(); ++t) {
      barrier->AddCompute(static_cast<uint32_t>(t % cluster->num_workers()),
                          round_stats.busy_seconds[t]);
    }
    barrier->EndRound();
    round = barrier->round();
  }

  result.wall_seconds = timer.ElapsedSeconds();
  if (barrier.has_value()) {
    const TrafficSnapshot traffic = barrier->Traffic();
    result.migrated_bytes = traffic.cross_bytes;
    result.data_touched_bytes = traffic.cross_bytes + traffic.local_bytes;
    result.modeled_seconds = barrier->ModeledSeconds();
    const FaultStats& fault_stats = barrier->fault_stats();
    result.checkpoints_taken = fault_stats.checkpoints_taken;
    result.checkpoint_bytes = fault_stats.checkpoint_bytes;
    result.restored_bytes = fault_stats.restored_bytes;
    result.failures_recovered = fault_stats.failures_recovered;
    result.recomputed_rounds = fault_stats.recomputed_rounds;
  }
  return result;
}

}  // namespace gal
