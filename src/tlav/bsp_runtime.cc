#include "tlav/bsp_runtime.h"

#include <algorithm>
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
      partition_(partition.has_value() ? std::move(*partition)
                                       : HashPartition(g, workers_)),
      pool_(std::min(workers_, ResolveTaskThreads(0))),
      owned_vertices_(workers_),
      counters_(workers_),
      barrier_(cluster_, config.faults) {
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
  timer_.Reset();
  cluster_->InstallPartition(partition_);
  // A snapshot is the engine's state, then the per-step stats length to
  // truncate back to.
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

void BspRuntime::ForEachWorker(const std::function<void(uint32_t)>& fn) {
  pool_.ParallelFor(workers_, [&](size_t w) {
    Timer t;
    fn(static_cast<uint32_t>(w));
    barrier_.AddCompute(static_cast<uint32_t>(w), t.ElapsedSeconds());
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
  stats_->vertex_activations += step.active_vertices;
  stats_->total_messages += step.messages;
  stats_->per_step.push_back(step);
  return barrier_.EndRound();
}

void BspRuntime::Finish() {
  stats_->supersteps = static_cast<uint32_t>(stats_->per_step.size());
  stats_->total_message_bytes = stats_->total_messages * message_bytes_;
  const TrafficSnapshot traffic = barrier_.Traffic();
  stats_->cross_worker_messages = traffic.cross_messages;
  stats_->cross_worker_bytes = traffic.cross_bytes;
  stats_->modeled_seconds = barrier_.ModeledSeconds();
  stats_->wall_seconds = timer_.ElapsedSeconds();
  stats_->SetFaultStats(barrier_.fault_stats());
}

/// The barrier's migration hook: sheds `fraction` of worker `from`'s
/// vertices via RebalanceAway and reinstalls the partition. The engines
/// fold messages order-independently, so moving a vertex's home changes
/// traffic and timing, never results.
std::vector<VertexId> BspRuntime::Migrate(uint32_t from, double fraction) {
  std::vector<VertexId> moved;
  partition_ = RebalanceAway(g_, partition_, from, fraction, &moved);
  cluster_->InstallPartition(partition_);
  AssignOwnedVertices();
  return moved;
}

void BspRuntime::AssignOwnedVertices() {
  for (std::vector<VertexId>& list : owned_vertices_) list.clear();
  for (VertexId v = 0; v < g_.NumVertices(); ++v) {
    owned_vertices_[partition_.assignment[v]].push_back(v);
  }
}

}  // namespace gal
