#include "tlag/algos/triangles.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/round_barrier.h"
#include "common/timer.h"
#include "partition/partition.h"

namespace gal {
namespace {

/// Per-thread join state, padded to a cache line so concurrent workers
/// never share one — the ledger idiom: the thread's marks, its
/// triangle/ops tally (folded after each round), and the running task's
/// row bytes and row count per home worker (charged at task end).
struct alignas(64) WorkerState {
  WorkerState(VertexId num_vertices, uint32_t num_homes)
      : marks(num_vertices), home_bytes(num_homes), home_rows(num_homes) {}
  MarkedRow marks;
  uint64_t triangles = 0;
  uint64_t ops = 0;
  std::vector<uint64_t> home_bytes;
  std::vector<uint64_t> home_rows;
};

/// Chunk-rounds a run under a fault plan slices its vertices into (fewer
/// when the graph has too few vertices to fill them).
constexpr uint32_t kChunkRounds = 16;

}  // namespace

TriangleCountResult SerialTriangleCount(const Graph& g) {
  Timer timer;
  TriangleCountResult result;
  OrientedRows oriented;
  oriented.Build(g, g, 0, g.NumVertices());
  MarkedRow marks(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    result.triangles +=
        marks.Join(oriented.Row(v), oriented, result.intersection_ops);
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

  // One state per engine thread; contention-free during a round, its
  // tally folded into the result's running totals after the engine
  // drains.
  const uint32_t num_homes = parts != nullptr ? cluster->num_workers() : 0;
  std::vector<WorkerState> states(ResolveTaskThreads(config.num_threads),
                                  WorkerState(g.NumVertices(), num_homes));

  const auto process = [&](VertexId& v, TaskEngine<VertexId>::Context& ctx) {
    WorkerState& state = states[ctx.thread_id()];
    const auto touch = [&](VertexId x, std::span<const VertexId> row) {
      if (parts == nullptr) return;
      const uint32_t home = parts->assignment[x];
      state.home_bytes[home] += row.size_bytes();
      ++state.home_rows[home];
    };
    const std::span<const VertexId> row = oriented.Row(v);
    touch(v, row);
    state.triangles += state.marks.Join(
        row, oriented, state.ops,
        [&](VertexId u, std::span<const VertexId> target, uint64_t) {
          touch(u, target);
        });
    for (uint32_t home = 0; home < num_homes; ++home) {
      if (state.home_rows[home] == 0) continue;
      ctx.TouchPartition(home, state.home_bytes[home], state.home_rows[home]);
      state.home_bytes[home] = 0;
      state.home_rows[home] = 0;
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
    for (WorkerState& state : states) state.triangles = state.ops = 0;

    TaskEngine<VertexId> engine(config);
    const TaskEngineStats round_stats = engine.Run(std::move(tasks), process);
    for (const WorkerState& state : states) {
      result.triangles += state.triangles;
      result.intersection_ops += state.ops;
    }
    AddTaskEngineStats(round_stats, &result.task_stats);
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
