#ifndef GAL_TLAV_ENGINE_H_
#define GAL_TLAV_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "cluster/checkpoint.h"
#include "cluster/cluster.h"
#include "cluster/exchange.h"
#include "cluster/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "graph/graph.h"
#include "partition/partition.h"

namespace gal {

/// How an aggregator folds per-vertex contributions.
enum class AggregateOp : uint8_t { kSum, kMin, kMax };

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

template <typename V, typename M>
class TlavEngine;

/// The view of one vertex handed to a VertexProgram::Compute call.
/// Mirrors Pregel's Vertex class: value access, message sending,
/// VoteToHalt, and aggregator access.
template <typename V, typename M>
class VertexHandle {
 public:
  VertexId id() const { return id_; }
  uint32_t superstep() const;
  VertexId num_vertices() const;

  V& value() { return *value_; }
  const V& value() const { return *value_; }

  std::span<const VertexId> Neighbors() const;
  uint32_t Degree() const;

  void SendTo(VertexId target, const M& message);
  void SendToAllNeighbors(const M& message);

  /// Deactivates this vertex; it is revived by any incoming message.
  void VoteToHalt();

  /// Contributes to a registered aggregator (visible next superstep).
  void Aggregate(const std::string& name, double value);
  /// Value of an aggregator as of the end of the previous superstep.
  double GetAggregate(const std::string& name) const;

 private:
  friend class TlavEngine<V, M>;
  VertexHandle(TlavEngine<V, M>* engine, uint32_t worker, VertexId id, V* value)
      : engine_(engine), worker_(worker), id_(id), value_(value) {}

  TlavEngine<V, M>* engine_;
  uint32_t worker_;
  VertexId id_;
  V* value_;
};

/// A user computation in the think-like-a-vertex model. Subclass and
/// override Compute; optionally provide a commutative/associative
/// combiner to shrink message traffic (Pregel's optimization).
template <typename V, typename M>
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  /// Called on every active vertex each superstep. At superstep 0 all
  /// vertices are active and `messages` is empty.
  virtual void Compute(VertexHandle<V, M>& vertex,
                       std::span<const M> messages) = 0;

  /// Return true and implement Combine to enable sender-side combining.
  virtual bool has_combiner() const { return false; }
  virtual M Combine(const M& a, const M& b) const {
    (void)a;
    return b;
  }
};

/// Engine configuration.
struct TlavConfig {
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
  /// Shared simulated-cluster substrate. When set, the engine adopts its
  /// worker count, charges cross-worker traffic to its ledger, advances
  /// its VirtualClock one round per superstep, and installs the job's
  /// partition on it. When null the engine owns a private runtime with
  /// `num_workers` workers.
  ClusterRuntime* cluster = nullptr;
};

/// A Pregel-style Bulk Synchronous Parallel engine over a simulated
/// cluster of `num_workers` workers. Vertices are placed by an explicit
/// VertexPartition so partitioning strategies can be compared under
/// identical programs. Messages route through the runtime's
/// ExchangeChannel, whose deterministic (src-worker, seq) delivery order
/// keeps results and stats bit-identical at any host thread count
/// (GAL_TASK_THREADS caps the host threads that execute the simulated
/// workers; it never changes the math).
template <typename V, typename M>
class TlavEngine {
 public:
  /// `partition` must cover g's vertices; pass HashPartition(g, workers)
  /// for the Pregel default.
  TlavEngine(const Graph* graph, TlavConfig config, VertexPartition partition)
      : graph_(graph),
        config_(AdoptClusterWidth(config)),
        owned_cluster_(config.cluster == nullptr
                           ? std::make_unique<ClusterRuntime>(ClusterOptions{
                                 config_.num_workers, NetworkCostModel{}})
                           : nullptr),
        cluster_(config.cluster != nullptr ? config.cluster
                                           : owned_cluster_.get()),
        partition_(std::move(partition)),
        pool_(std::min(config_.num_workers, ResolveTaskThreads(0))),
        channel_(std::make_unique<ExchangeChannel<M>>(
            cluster_, config_.message_overhead_bytes)) {
    GAL_CHECK(partition_.assignment.size() == graph_->NumVertices());
    GAL_CHECK(partition_.num_parts == config_.num_workers);
    cluster_->InstallPartition(partition_);
    const VertexId n = graph_->NumVertices();
    values_.resize(n);
    halted_.assign(n, 0);
    inbox_.resize(n);
    next_inbox_.resize(n);
    worker_vertices_.resize(config_.num_workers);
    for (VertexId v = 0; v < n; ++v) {
      worker_vertices_[partition_.assignment[v]].push_back(v);
    }
    worker_counters_.resize(config_.num_workers);
  }

  /// Convenience: hash partition.
  TlavEngine(const Graph* graph, TlavConfig config)
      : TlavEngine(graph, config,
                   HashPartition(*graph, config.cluster != nullptr
                                             ? config.cluster->num_workers()
                                             : config.num_workers)) {}

  /// Sets every vertex value before the run.
  void InitValues(const std::function<V(VertexId)>& init) {
    for (VertexId v = 0; v < graph_->NumVertices(); ++v) values_[v] = init(v);
  }

  void RegisterAggregator(const std::string& name, AggregateOp op,
                          double initial = 0.0) {
    aggregators_[name] = {op, initial, initial, initial};
  }

  /// Runs supersteps until every vertex has halted and no messages are
  /// in flight (or max_supersteps is hit). Returns accumulated stats.
  TlavStats Run(VertexProgram<V, M>& program);

  const std::vector<V>& values() const { return values_; }
  std::vector<V>& mutable_values() { return values_; }
  const Graph& graph() const { return *graph_; }
  const TlavStats& stats() const { return stats_; }
  ClusterRuntime& cluster() { return *cluster_; }

 private:
  friend class VertexHandle<V, M>;

  /// A config.cluster runtime dictates the simulated width.
  static TlavConfig AdoptClusterWidth(TlavConfig config) {
    if (config.cluster != nullptr) {
      config.num_workers = config.cluster->num_workers();
    }
    return config;
  }

  struct Aggregator {
    AggregateOp op;
    double initial;
    double current;   // being accumulated this superstep
    double previous;  // readable by Compute
    void Fold(double v) {
      switch (op) {
        case AggregateOp::kSum: current += v; break;
        case AggregateOp::kMin: current = std::min(current, v); break;
        case AggregateOp::kMax: current = std::max(current, v); break;
      }
    }
  };

  /// Per-worker counters a worker updates without synchronization,
  /// cache-line separated. `decode_scratch` is the worker's adjacency
  /// decode buffer for compressed graphs: exactly one VertexHandle is
  /// live per worker at a time, so the span VertexHandle::Neighbors()
  /// returns over it stays valid for the duration of a Compute call.
  struct alignas(64) WorkerCounters {
    uint64_t edge_scans = 0;
    std::vector<VertexId> decode_scratch;
  };

  void Send(uint32_t src_worker, VertexId dst, const M& message,
            bool mirrored = false) {
    channel_->Send(src_worker, partition_.assignment[dst], dst, message,
                   mirrored);
  }

  /// SendToAllNeighbors with Pregel+ mirroring for eligible hubs: one
  /// wire message per remote worker that hosts any neighbor. Streams the
  /// adjacency (decoding in-register when compressed) without touching
  /// the worker's decode scratch, so a span a Compute call still holds
  /// from VertexHandle::Neighbors() stays valid across a send.
  void Broadcast(uint32_t src_worker, VertexId src, const M& message) {
    const bool mirror = config_.mirror_degree_threshold > 0 &&
                        graph_->Degree(src) >= config_.mirror_degree_threshold;
    if (!mirror) {
      graph_->ForEachOutNeighbor(
          src, [&](VertexId u) { Send(src_worker, u, message); });
      return;
    }
    std::vector<uint8_t> worker_touched(config_.num_workers, 0);
    graph_->ForEachOutNeighbor(src, [&](VertexId u) {
      const uint32_t w = partition_.assignment[u];
      if (!worker_touched[w]) {
        worker_touched[w] = 1;
        channel_->AddMirrorWire(src_worker, w);  // the single mirror message
      } else {
        channel_->NoteMirroredDelivery(src_worker);
      }
      Send(src_worker, u, message, /*mirrored=*/true);
    });
  }

  const Graph* graph_;
  TlavConfig config_;
  std::unique_ptr<ClusterRuntime> owned_cluster_;
  ClusterRuntime* cluster_;
  VertexPartition partition_;
  ThreadPool pool_;
  std::unique_ptr<ExchangeChannel<M>> channel_;

  std::vector<V> values_;
  std::vector<uint8_t> halted_;
  std::vector<std::vector<M>> inbox_;       // messages for this superstep
  std::vector<std::vector<M>> next_inbox_;  // being filled for next one
  std::vector<std::vector<VertexId>> worker_vertices_;
  std::vector<WorkerCounters> worker_counters_;
  std::map<std::string, Aggregator> aggregators_;
  std::mutex aggregator_mu_;
  uint32_t superstep_ = 0;
  TlavStats stats_;

  /// A consistent cut at the superstep barrier for the shared
  /// CheckpointStore: vertex values, halt flags, the delivered inbox
  /// (the in-flight messages of the next superstep), aggregator state,
  /// and the per-step stats length to truncate back to on rollback.
  std::vector<uint8_t> SerializeState() const {
    static_assert(std::is_trivially_copyable_v<V> &&
                      std::is_trivially_copyable_v<M>,
                  "TLAV checkpointing snapshots V/M by bytes");
    BlobWriter w;
    w.Vec(values_);
    w.Vec(halted_);
    w.Pod<uint64_t>(inbox_.size());
    for (const std::vector<M>& box : inbox_) w.Vec(box);
    w.Pod<uint64_t>(aggregators_.size());
    for (const auto& [name, agg] : aggregators_) {
      w.Str(name);
      w.Pod(agg.op);
      w.Pod(agg.initial);
      w.Pod(agg.current);
      w.Pod(agg.previous);
    }
    w.Pod<uint64_t>(stats_.per_step.size());
    return std::move(w).Take();
  }

  void RestoreState(const std::vector<uint8_t>& blob) {
    BlobReader r(blob);
    values_ = r.template Vec<V>();
    halted_ = r.template Vec<uint8_t>();
    const uint64_t boxes = r.template Pod<uint64_t>();
    GAL_CHECK(boxes == inbox_.size());
    for (std::vector<M>& box : inbox_) box = r.template Vec<M>();
    const uint64_t num_aggregators = r.template Pod<uint64_t>();
    aggregators_.clear();
    for (uint64_t i = 0; i < num_aggregators; ++i) {
      const std::string name = r.Str();
      Aggregator agg;
      agg.op = r.template Pod<AggregateOp>();
      agg.initial = r.template Pod<double>();
      agg.current = r.template Pod<double>();
      agg.previous = r.template Pod<double>();
      aggregators_[name] = agg;
    }
    stats_.per_step.resize(r.template Pod<uint64_t>());
    GAL_CHECK(r.exhausted());
  }

  /// Live rebalancing: sheds migrate_fraction of the straggler's
  /// vertices via RebalanceAway, reinstalls the partition, and books
  /// the moved state (value + halt flag + queued inbox messages per
  /// vertex) through the session. Shipped programs fold messages
  /// order-independently, so moving a vertex's home mid-run changes
  /// traffic and timing but never results.
  void MigrateAway(uint32_t from, RecoverySession& session) {
    std::vector<VertexId> moved;
    VertexPartition next =
        RebalanceAway(*graph_, partition_, from,
                      config_.faults.rebalance().migrate_fraction, &moved);
    if (moved.empty()) return;
    std::vector<uint64_t> dst_bytes(config_.num_workers, 0);
    for (VertexId v : moved) {
      dst_bytes[next.assignment[v]] +=
          sizeof(V) + 1 + inbox_[v].size() * sizeof(M);
    }
    std::vector<std::pair<uint32_t, uint64_t>> per_dst;
    for (uint32_t w = 0; w < config_.num_workers; ++w) {
      if (dst_bytes[w] > 0) per_dst.emplace_back(w, dst_bytes[w]);
    }
    partition_ = std::move(next);
    cluster_->InstallPartition(partition_);
    for (std::vector<VertexId>& list : worker_vertices_) list.clear();
    for (VertexId v = 0; v < graph_->NumVertices(); ++v) {
      worker_vertices_[partition_.assignment[v]].push_back(v);
    }
    session.CommitMigration(from, per_dst, moved.size());
  }
};

// --- implementation --------------------------------------------------------

template <typename V, typename M>
uint32_t VertexHandle<V, M>::superstep() const { return engine_->superstep_; }

template <typename V, typename M>
VertexId VertexHandle<V, M>::num_vertices() const {
  return engine_->graph_->NumVertices();
}

template <typename V, typename M>
std::span<const VertexId> VertexHandle<V, M>::Neighbors() const {
  auto& counters = engine_->worker_counters_[worker_];
  counters.edge_scans += engine_->graph_->Degree(id_);
  // Raw layout: a direct span into the CSR. Compressed: decoded into
  // this worker's scratch, valid until the worker's next Neighbors()
  // call (i.e. for the rest of this Compute invocation).
  return engine_->graph_->NeighborsInto(id_, counters.decode_scratch);
}

template <typename V, typename M>
uint32_t VertexHandle<V, M>::Degree() const {
  return engine_->graph_->Degree(id_);
}

template <typename V, typename M>
void VertexHandle<V, M>::SendTo(VertexId target, const M& message) {
  engine_->Send(worker_, target, message);
}

template <typename V, typename M>
void VertexHandle<V, M>::SendToAllNeighbors(const M& message) {
  engine_->worker_counters_[worker_].edge_scans +=
      engine_->graph_->Degree(id_);
  engine_->Broadcast(worker_, id_, message);
}

template <typename V, typename M>
void VertexHandle<V, M>::VoteToHalt() { engine_->halted_[id_] = 1; }

template <typename V, typename M>
void VertexHandle<V, M>::Aggregate(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(engine_->aggregator_mu_);
  auto it = engine_->aggregators_.find(name);
  GAL_CHECK(it != engine_->aggregators_.end()) << "unknown aggregator " << name;
  it->second.Fold(value);
}

template <typename V, typename M>
double VertexHandle<V, M>::GetAggregate(const std::string& name) const {
  std::lock_guard<std::mutex> lock(engine_->aggregator_mu_);
  auto it = engine_->aggregators_.find(name);
  GAL_CHECK(it != engine_->aggregators_.end()) << "unknown aggregator " << name;
  return it->second.previous;
}

template <typename V, typename M>
TlavStats TlavEngine<V, M>::Run(VertexProgram<V, M>& program) {
  Timer timer;
  stats_ = TlavStats{};
  const uint32_t workers = config_.num_workers;
  const bool combining = program.has_combiner();
  typename ExchangeChannel<M>::Combiner combiner;
  if (combining) {
    combiner = [&program](const M& a, const M& b) {
      return program.Combine(a, b);
    };
  }
  channel_->Begin(std::move(combiner));
  const TrafficSnapshot ledger_start = cluster_->ledger().Snapshot();
  const size_t clock_start = cluster_->clock().rounds();
  std::vector<double> compute_seconds(workers, 0.0);

  // The shared fault-tolerance driver: checkpoints, injected failures,
  // straggler slowdowns, and rebalancing all flow through this session
  // against the runtime's ledger and clock.
  RecoverySession session(cluster_, config_.faults);
  if (session.WantsInitialCheckpoint()) {
    session.Commit(RecoverySession::kInitialRound, SerializeState());
  }
  std::vector<double> worker_load(workers, 0.0);

  uint64_t pending_messages = 0;
  superstep_ = 0;
  while (superstep_ < config_.max_supersteps) {
    // Compute phase: each simulated worker processes its own vertices
    // (host threads pick up whole workers, so outbox lanes stay
    // single-writer).
    std::atomic<uint64_t> active_count{0};
    pool_.ParallelFor(workers, [&](size_t w) {
      Timer worker_timer;
      uint64_t active = 0;
      for (VertexId v : worker_vertices_[w]) {
        const bool has_messages = !inbox_[v].empty();
        if (halted_[v] && !has_messages) continue;
        halted_[v] = 0;
        VertexHandle<V, M> handle(this, static_cast<uint32_t>(w), v,
                                  &values_[v]);
        program.Compute(handle, std::span<const M>(inbox_[v]));
        inbox_[v].clear();
        ++active;
      }
      active_count.fetch_add(active);
      compute_seconds[w] = worker_timer.ElapsedSeconds();
    });
    // Straggler injection: scheduled slowdown factors scale the modeled
    // per-worker compute before the round is priced.
    session.ScaleCompute(superstep_, std::span<double>(compute_seconds));

    // Message delivery phase (the BSP barrier): the exchange channel
    // charges the step's wire traffic to the cluster ledger and routes
    // every lane to its destination worker's inboxes, with
    // receiver-side combining when the program has a combiner.
    const auto totals = channel_->Flush(
        &pool_, [&](uint32_t /*dst_worker*/, VertexId v, M&& m) {
          std::vector<M>& box = next_inbox_[v];
          if (combining && !box.empty()) {
            // Receiver-side combining collapses the per-source slots.
            box[0] = program.Combine(box[0], m);
          } else {
            box.push_back(std::move(m));
          }
        });
    const uint64_t step_messages = totals.logical_messages;
    stats_.mirrored_deliveries += totals.mirrored;
    std::swap(inbox_, next_inbox_);

    // The modeled cluster round: slowest worker + this step's wire time.
    cluster_->clock().AdvanceRound(
        std::span<const double>(compute_seconds), totals.cross_bytes,
        totals.cross_messages);

    // Aggregator barrier.
    for (auto& [name, agg] : aggregators_) {
      agg.previous = agg.current;
      agg.current = agg.initial;
    }

    // Stats.
    stats_.vertex_activations += active_count.load();
    stats_.total_messages += step_messages;
    stats_.total_message_bytes += step_messages * sizeof(M);
    for (WorkerCounters& counters : worker_counters_) {
      stats_.edge_scans += counters.edge_scans;
      counters.edge_scans = 0;
    }
    stats_.per_step.push_back({active_count.load(), step_messages});

    // --- shared checkpoint / recovery / rebalance hooks ---------------
    // The snapshot lands at the superstep barrier: values, halt flags,
    // and the just-delivered inbox (the in-flight messages of the next
    // superstep). Its bytes ride the ledger, its transfer time the clock.
    if (session.ShouldCheckpoint(superstep_)) {
      session.Commit(superstep_, SerializeState());
    }
    uint32_t resume_superstep = 0;
    if (const std::vector<uint8_t>* blob =
            session.OnFailure(superstep_, &resume_superstep)) {
      RestoreState(*blob);
      for (auto& box : next_inbox_) box.clear();
      channel_->Clear();
      superstep_ = resume_superstep;
      continue;  // replay from the superstep after the checkpoint
    }
    if (config_.faults.rebalance().enabled) {
      // Deterministic load signal: owned vertices, scaled inside the
      // session by each worker's scheduled slowdown.
      for (uint32_t w = 0; w < workers; ++w) {
        worker_load[w] = static_cast<double>(worker_vertices_[w].size());
      }
      const uint32_t straggler = session.RebalanceCandidate(
          superstep_, std::span<const double>(worker_load));
      if (straggler != RecoverySession::kNoWorker) {
        MigrateAway(straggler, session);
      }
    }

    pending_messages = step_messages;
    if (active_count.load() == 0 && pending_messages == 0) break;
    if (pending_messages == 0) {
      // Check whether everything halted this step.
      bool all_halted = true;
      for (uint8_t h : halted_) {
        if (!h) {
          all_halted = false;
          break;
        }
      }
      if (all_halted) {
        ++superstep_;
        break;
      }
    }
    ++superstep_;
  }

  stats_.supersteps = superstep_ + (superstep_ < config_.max_supersteps ? 1 : 0);
  // Trim: the final bookkeeping step with zero activity is not a superstep.
  while (!stats_.per_step.empty() && stats_.per_step.back().active_vertices == 0 &&
         stats_.per_step.back().messages == 0) {
    stats_.per_step.pop_back();
  }
  stats_.supersteps = static_cast<uint32_t>(stats_.per_step.size());
  stats_.wall_seconds = timer.ElapsedSeconds();
  // Cross-worker traffic is read back from the ledger: TlavStats is a
  // view over this run's ledger delta.
  const TrafficSnapshot ledger_end = cluster_->ledger().Snapshot();
  stats_.cross_worker_messages =
      ledger_end.cross_messages - ledger_start.cross_messages;
  stats_.cross_worker_bytes = ledger_end.cross_bytes - ledger_start.cross_bytes;
  stats_.modeled_seconds = cluster_->clock().SecondsSince(clock_start);
  stats_.SetFaultStats(session.stats());
  return stats_;
}

}  // namespace gal

#endif  // GAL_TLAV_ENGINE_H_
