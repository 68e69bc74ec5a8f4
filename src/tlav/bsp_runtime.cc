#include "tlav/bsp_runtime.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/logging.h"

namespace gal {

BspRuntime::BspRuntime(const Graph& g, const TlavConfig& config,
                       uint64_t message_bytes,
                       std::optional<VertexPartition> partition)
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
      faults_(config.faults),
      partition_(partition.has_value() ? std::move(*partition)
                                       : HashPartition(g, workers_)),
      pool_(std::min(workers_, ResolveTaskThreads(0))),
      owned_vertices_(workers_),
      counters_(workers_),
      compute_seconds_(workers_, 0.0) {
  GAL_CHECK(partition_.assignment.size() == g.NumVertices());
  GAL_CHECK(partition_.num_parts == workers_)
      << "partition width " << partition_.num_parts << " != cluster width "
      << workers_;
  AssignOwnedVertices();
}

void BspRuntime::Start(TlavStats* stats, State state) {
  stats_ = stats;
  *stats_ = TlavStats{};
  state_ = std::move(state);
  step_ = 0;
  timer_.Reset();
  cluster_->InstallPartition(partition_);
  ledger_start_ = cluster_->ledger().Snapshot();
  clock_start_ = cluster_->clock().rounds();
  session_.emplace(cluster_, faults_);
  if (session_->WantsInitialCheckpoint()) {
    session_->Commit(RecoverySession::kInitialRound, Snapshot());
  }
  ledger_at_barrier_ = cluster_->ledger().Snapshot();
}

void BspRuntime::ForEachWorker(const std::function<void(uint32_t)>& fn) {
  pool_.ParallelFor(workers_, [&](size_t w) {
    Timer t;
    fn(static_cast<uint32_t>(w));
    compute_seconds_[w] += t.ElapsedSeconds();
  });
}

bool BspRuntime::EndStep() {
  TlavStats::PerStep step;
  for (StepCounters& c : counters_) {
    step.active_vertices += c.active;
    step.messages += c.messages;
    stats_->edge_scans += c.edges;
    c = StepCounters{};
  }
  session_->ScaleCompute(step_, std::span<double>(compute_seconds_));
  const TrafficSnapshot now = cluster_->ledger().Snapshot();
  cluster_->clock().AdvanceRound(
      std::span<const double>(compute_seconds_),
      now.cross_bytes - ledger_at_barrier_.cross_bytes,
      now.cross_messages - ledger_at_barrier_.cross_messages);
  std::fill(compute_seconds_.begin(), compute_seconds_.end(), 0.0);
  stats_->vertex_activations += step.active_vertices;
  stats_->total_messages += step.messages;
  stats_->per_step.push_back(step);

  bool committed = true;
  if (session_->ShouldCheckpoint(step_)) session_->Commit(step_, Snapshot());
  uint32_t resume = 0;
  if (const std::vector<uint8_t>* blob = session_->OnFailure(step_, &resume)) {
    Restore(*blob);
    step_ = resume;
    committed = false;
  } else {
    Rebalance();
    ++step_;
  }
  ledger_at_barrier_ = cluster_->ledger().Snapshot();
  return committed;
}

void BspRuntime::Finish() {
  stats_->supersteps = static_cast<uint32_t>(stats_->per_step.size());
  stats_->total_message_bytes = stats_->total_messages * message_bytes_;
  const TrafficSnapshot end = cluster_->ledger().Snapshot();
  stats_->cross_worker_messages =
      end.cross_messages - ledger_start_.cross_messages;
  stats_->cross_worker_bytes = end.cross_bytes - ledger_start_.cross_bytes;
  stats_->modeled_seconds = cluster_->clock().SecondsSince(clock_start_);
  stats_->wall_seconds = timer_.ElapsedSeconds();
  stats_->SetFaultStats(session_->stats());
}

/// A consistent cut at the step barrier: the engine's state, then the
/// per-step stats length to truncate back to.
std::vector<uint8_t> BspRuntime::Snapshot() const {
  BlobWriter w;
  state_.save(w);
  w.Pod<uint64_t>(stats_->per_step.size());
  return std::move(w).Take();
}

void BspRuntime::Restore(const std::vector<uint8_t>& blob) {
  BlobReader r(blob);
  state_.load(r);
  stats_->per_step.resize(r.Pod<uint64_t>());
  GAL_CHECK(r.exhausted());
}

/// Live rebalancing: when the session names a sustained straggler,
/// sheds migrate_fraction of its vertices via RebalanceAway, reinstalls
/// the partition, and books each moved vertex's state. The engines fold
/// messages order-independently, so moving a vertex's home changes
/// traffic and timing, never results.
void BspRuntime::Rebalance() {
  if (!faults_.rebalance().enabled) return;
  // Deterministic load signal: owned vertices, scaled inside the session
  // by each worker's scheduled slowdown.
  std::vector<double> load(workers_);
  for (uint32_t w = 0; w < workers_; ++w) {
    load[w] = static_cast<double>(owned_vertices_[w].size());
  }
  const uint32_t from =
      session_->RebalanceCandidate(step_, std::span<const double>(load));
  if (from == RecoverySession::kNoWorker) return;
  std::vector<VertexId> moved;
  VertexPartition next = RebalanceAway(
      g_, partition_, from, faults_.rebalance().migrate_fraction, &moved);
  if (moved.empty()) return;
  std::vector<uint64_t> dst_bytes(workers_, 0);
  for (VertexId v : moved) {
    dst_bytes[next.assignment[v]] += state_.vertex_bytes(v);
  }
  std::vector<std::pair<uint32_t, uint64_t>> per_dst;
  for (uint32_t w = 0; w < workers_; ++w) {
    if (dst_bytes[w] > 0) per_dst.emplace_back(w, dst_bytes[w]);
  }
  partition_ = std::move(next);
  cluster_->InstallPartition(partition_);
  AssignOwnedVertices();
  session_->CommitMigration(from, per_dst, moved.size());
}

void BspRuntime::AssignOwnedVertices() {
  for (std::vector<VertexId>& list : owned_vertices_) list.clear();
  for (VertexId v = 0; v < g_.NumVertices(); ++v) {
    owned_vertices_[partition_.assignment[v]].push_back(v);
  }
}

}  // namespace gal
