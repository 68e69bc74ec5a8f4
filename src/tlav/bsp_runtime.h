#ifndef GAL_TLAV_BSP_RUNTIME_H_
#define GAL_TLAV_BSP_RUNTIME_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/checkpoint.h"
#include "cluster/cluster.h"
#include "cluster/fault.h"
#include "cluster/round_barrier.h"
#include "common/logging.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "graph/graph.h"
#include "graph/neighbor_source.h"
#include "partition/partition.h"

namespace gal {

/// Per-superstep and cumulative statistics of a TLAV run. The simulated
/// workers make communication observable: a message is "cross-worker"
/// when source and destination vertices live on different parts of the
/// configured partition, which is exactly the traffic a real Pregel
/// deployment puts on the network. The cross-worker fields are a view
/// over the ClusterRuntime's TrafficLedger (this run's delta), so TLAV
/// traffic lands on the same axis as dist-GNN and TLAG traffic.
struct TlavStats {
  uint32_t supersteps = 0;
  uint64_t total_messages = 0;        // logical deliveries
  uint64_t cross_worker_messages = 0; // wire messages between workers
  uint64_t total_message_bytes = 0;
  uint64_t cross_worker_bytes = 0;
  /// Logical deliveries folded into mirror broadcasts (Pregel+).
  uint64_t mirrored_deliveries = 0;
  /// Sum over supersteps of the number of vertices computed; the
  /// "work" measure behind the O((|V|+|E|) log |V|) bound discussion.
  uint64_t vertex_activations = 0;
  uint64_t edge_scans = 0;
  double wall_seconds = 0.0;
  /// Modeled cluster seconds of this run from the runtime's
  /// VirtualClock: Σ over supersteps of max-worker compute +
  /// cost-model comm (includes recomputed supersteps after an injected
  /// failure — recovery costs modeled time too).
  double modeled_seconds = 0.0;
  // Direction-optimizing traversal accounting. The message engine is
  // push-only (both stay 0); BFS/WCC runs on the frontier substrate
  // report how many supersteps gathered over in-edges and how often the
  // Beamer heuristic flipped direction.
  uint32_t pull_supersteps = 0;
  uint32_t direction_switches = 0;
  // Fault-tolerance accounting, read back from the shared
  // RecoverySession (cluster/checkpoint.h) this run drove. Work counters
  // above (messages, activations, edge scans, ledger bytes) include
  // recomputed supersteps; `supersteps`, `pull_supersteps` and
  // `per_step` describe the logical schedule, equal to a clean run's.
  uint32_t checkpoints_taken = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t restored_bytes = 0;
  uint32_t failures_recovered = 0;
  uint32_t recomputed_supersteps = 0;
  // Live rebalancing (straggler mitigation).
  uint32_t rebalances = 0;
  uint64_t migrated_vertices = 0;
  uint64_t migration_bytes = 0;

  struct PerStep {
    uint64_t active_vertices = 0;
    uint64_t messages = 0;
  };
  std::vector<PerStep> per_step;

  /// Copies one run's RecoverySession accounting into the fields above.
  void SetFaultStats(const FaultStats& f) {
    checkpoints_taken = f.checkpoints_taken;
    checkpoint_bytes = f.checkpoint_bytes;
    restored_bytes = f.restored_bytes;
    failures_recovered = f.failures_recovered;
    recomputed_supersteps = f.recomputed_rounds;
    rebalances = f.rebalances;
    migrated_vertices = f.migrated_vertices;
    migration_bytes = f.migration_bytes;
  }
};

/// Configuration of a TLAV run, shared by the message engine and the
/// frontier traversals.
struct TlavConfig {
  /// Simulated cluster width when `cluster` is null: 0 = resolve from
  /// GAL_CLUSTER_WORKERS, else 4 (ResolveClusterWorkers).
  uint32_t num_workers = 4;
  uint32_t max_supersteps = 1000000;
  /// Simulated per-message network overhead added to sizeof(M) when the
  /// message crosses workers (envelope: dst id + lengths).
  uint32_t message_overhead_bytes = 8;
  /// Pregel+-style mirroring: a vertex whose degree reaches this
  /// threshold broadcasts to each remote worker once (its "mirror"
  /// fans the value out locally) instead of once per neighbor
  /// (0 = off). Only affects SendToAllNeighbors, and only the wire
  /// accounting — logical deliveries are unchanged. TlavBfs, TlavSssp
  /// and Wcc run on the frontier substrate and reject a non-zero value.
  uint32_t mirror_degree_threshold = 0;
  /// The shared fault-tolerance schedule (cluster/fault.h): checkpoint
  /// cadence, worker failures, straggler slowdowns, and live
  /// rebalancing, all driven through one RecoverySession per run. The
  /// default resolves GAL_CLUSTER_FAULT_* (empty plan when unset).
  /// Checkpoint/restore/migration traffic is charged to the runtime's
  /// ledger and clock; results stay bit-identical to the fault-free run
  /// for order-independent programs (all shipped ones).
  FaultPlan faults = FaultPlan::FromEnvOrWarn();
  /// Shared simulated-cluster substrate. When set, the run adopts its
  /// worker count, charges cross-worker traffic to its ledger, advances
  /// its VirtualClock one round per superstep, and installs the job's
  /// partition on it. When null the run owns a private runtime with
  /// `num_workers` workers.
  ClusterRuntime* cluster = nullptr;
};

/// Where a BSP run places g's vertices when its caller gives none: hash
/// placement. Other neighbor sources overload it (ShardedGraph).
inline VertexPartition DefaultPlacement(const Graph& g, uint32_t workers) {
  return HashPartition(g, workers);
}

/// The one bulk-synchronous superstep loop under every TLAV engine: the
/// Pregel message engine (TlavEngine) and the frontier traversal
/// kernels (frontier/traversal.h). It resolves the simulated cluster,
/// places vertices on its workers, gives each worker a RowReader of g's
/// rows, times each worker's compute, and keeps the per-step stats. An
/// engine brings its step body, the state it snapshots, and what one
/// vertex weighs when it migrates; its message exchange charges the
/// cluster ledger during the step (ExchangeChannel, or direct ledger
/// charges such as a broadcast).
///
/// EndStep() folds the step's counters into the stats and ends the round
/// on the shared RoundBarrier (cluster/round_barrier.h), which owns the
/// straggler scaling, the clock round, checkpoint, rollback and
/// rebalancing; a migration moves vertices with RebalanceAway.
template <NeighborSource G = Graph>
class BspRuntime {
 public:
  /// Per-worker work counters of the running step; a worker updates
  /// only its own, and EndStep folds and clears them.
  struct alignas(64) StepCounters {
    uint64_t edges = 0;
    uint64_t messages = 0;  // logical deliveries sent (or pull probes)
    uint64_t active = 0;
  };

  /// What an engine checkpoints and migrates. `save` writes everything
  /// the next step reads except the step-indexed `per_step` stats, which
  /// the runtime appends; `load` reads it back on a rollback.
  /// `vertex_bytes(v)` is the state a migration ships for vertex v.
  struct State {
    std::function<void(BlobWriter&)> save;
    std::function<void(BlobReader&)> load;
    std::function<uint64_t(VertexId)> vertex_bytes;
  };

  /// Resolves the cluster (config.cluster, else a private one of
  /// config.num_workers workers) and places g's vertices by `partition`,
  /// or by DefaultPlacement at the cluster's width when it is empty (no
  /// assignment). `message_bytes` is sizeof one logical message: what a
  /// send adds to TlavStats::total_message_bytes.
  BspRuntime(const G& g, const TlavConfig& config, uint64_t message_bytes,
             VertexPartition partition = {})
      : g_(g),
        owned_cluster_(config.cluster == nullptr
                           ? std::make_unique<ClusterRuntime>(ClusterOptions{
                                 ResolveClusterWorkers(config.num_workers),
                                 NetworkCostModel{}})
                           : nullptr),
        cluster_(config.cluster != nullptr ? config.cluster
                                           : owned_cluster_.get()),
        workers_(cluster_->num_workers()),
        message_bytes_(message_bytes),
        partition_(partition.assignment.empty()
                       ? DefaultPlacement(g, workers_)
                       : std::move(partition)),
        pool_(std::min(workers_, ResolveTaskThreads(0))),
        owned_vertices_(workers_),
        counters_(workers_),
        barrier_(cluster_, config.faults) {
    GAL_CHECK(partition_.assignment.size() == g.NumVertices());
    GAL_CHECK(partition_.num_parts == workers_)
        << "partition width " << partition_.num_parts
        << " != cluster width " << workers_;
    readers_.reserve(workers_);
    for (uint32_t w = 0; w < workers_; ++w) readers_.emplace_back(g);
    AssignOwnedVertices();
  }

  ClusterRuntime* cluster() const { return cluster_; }
  uint32_t workers() const { return workers_; }
  ThreadPool& pool() { return pool_; }
  uint32_t OwnerOf(VertexId v) const { return partition_.assignment[v]; }
  /// Worker w's vertices, in ascending id.
  const std::vector<VertexId>& OwnedVertices(uint32_t w) const {
    return owned_vertices_[w];
  }
  StepCounters& counters(uint32_t w) { return counters_[w]; }
  /// Worker w's reader of g's rows; ForEachWorker releases it when the
  /// worker's step ends.
  RowReader<G>& reader(uint32_t w) { return readers_[w]; }
  /// 0-based index of the step about to run (rewinds on a rollback).
  uint32_t step() const { return barrier_.round(); }

  /// Begins a run: resets `stats`, installs the partition and starts
  /// the barrier, which snapshots `state` as the pre-step-0 rollback
  /// target when the fault plan schedules a failure.
  void Start(TlavStats* stats, State state) {
    stats_ = stats;
    *stats_ = TlavStats{};
    state_ = std::move(state);
    timer_.Reset();
    cluster_->InstallPartition(partition_);
    // A snapshot is the engine's state, then the per-step stats length
    // to truncate back to.
    barrier_.Start(
        {[this](BlobWriter& w) {
           state_.save(w);
           w.Pod<uint64_t>(stats_->per_step.size());
         },
         [this](BlobReader& r) {
           state_.load(r);
           stats_->per_step.resize(r.Pod<uint64_t>());
         },
         [this](uint32_t from, double fraction) {
           return Migrate(from, fraction);
         },
         state_.vertex_bytes});
  }

  /// Runs fn(w) on every simulated worker (host threads are an
  /// execution detail), releases the worker's reader, and adds each
  /// worker's wall time to the step's compute.
  void ForEachWorker(const std::function<void(uint32_t)>& fn) {
    pool_.ParallelFor(workers_, [&](size_t w) {
      Timer t;
      fn(static_cast<uint32_t>(w));
      readers_[w].Release();
      barrier_.AddCompute(static_cast<uint32_t>(w), t.ElapsedSeconds());
    });
  }

  /// The step barrier (see the class comment). Call it once the step's
  /// messages are delivered, so a snapshot holds exactly what the next
  /// step reads. Returns false when a failure rolled the run back to a
  /// checkpoint; step() is then the step to replay.
  bool EndStep() {
    TlavStats::PerStep step;
    for (StepCounters& c : counters_) {
      step.active_vertices += c.active;
      step.messages += c.messages;
      stats_->edge_scans += c.edges;
      c = StepCounters{};
    }
    stats_->vertex_activations += step.active_vertices;
    stats_->total_messages += step.messages;
    stats_->per_step.push_back(step);
    return barrier_.EndRound();
  }

  /// Ends the run: step count, payload bytes, this run's ledger and
  /// clock deltas, wall time and fault accounting into the stats.
  void Finish() {
    stats_->supersteps = static_cast<uint32_t>(stats_->per_step.size());
    stats_->total_message_bytes = stats_->total_messages * message_bytes_;
    const TrafficSnapshot traffic = barrier_.Traffic();
    stats_->cross_worker_messages = traffic.cross_messages;
    stats_->cross_worker_bytes = traffic.cross_bytes;
    stats_->modeled_seconds = barrier_.ModeledSeconds();
    stats_->wall_seconds = timer_.ElapsedSeconds();
    stats_->SetFaultStats(barrier_.fault_stats());
  }

 private:
  /// The barrier's migration hook: sheds `fraction` of worker `from`'s
  /// vertices via RebalanceAway and reinstalls the partition. The
  /// engines fold messages order-independently, so moving a vertex's
  /// home changes traffic and timing, never results.
  std::vector<VertexId> Migrate(uint32_t from, double fraction) {
    std::vector<VertexId> moved;
    partition_ = RebalanceAway(g_, partition_, from, fraction, &moved);
    cluster_->InstallPartition(partition_);
    AssignOwnedVertices();
    return moved;
  }

  void AssignOwnedVertices() {
    for (std::vector<VertexId>& list : owned_vertices_) list.clear();
    for (VertexId v = 0; v < g_.NumVertices(); ++v) {
      owned_vertices_[partition_.assignment[v]].push_back(v);
    }
  }

  const G& g_;
  std::unique_ptr<ClusterRuntime> owned_cluster_;
  ClusterRuntime* cluster_;
  uint32_t workers_;
  uint64_t message_bytes_;
  VertexPartition partition_;
  ThreadPool pool_;
  std::vector<RowReader<G>> readers_;
  std::vector<std::vector<VertexId>> owned_vertices_;
  std::vector<StepCounters> counters_;
  RoundBarrier barrier_;

  // Per-run state, set by Start.
  TlavStats* stats_ = nullptr;
  State state_;
  Timer timer_;
};

}  // namespace gal

#endif  // GAL_TLAV_BSP_RUNTIME_H_
