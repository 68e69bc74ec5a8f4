#include "cluster/checkpoint.h"

namespace gal {

void CheckpointStore::ChargeRing(uint64_t bytes, bool reverse) {
  const uint32_t workers = cluster_->num_workers();
  TrafficLedger& ledger = cluster_->ledger();
  // Each worker ships its share of the snapshot to its ring neighbor
  // (the "stable storage" of the simulation lives one hop away); the
  // remainder rides worker 0's share so the total is exactly `bytes`.
  // Restore reverses the ring. At W=1 the charge is src == dst, which
  // the ledger books as local — off the wire, still data touched.
  const uint64_t share = bytes / workers;
  for (uint32_t w = 0; w < workers; ++w) {
    const uint64_t piece = share + (w == 0 ? bytes % workers : 0);
    const uint32_t neighbor = (w + 1) % workers;
    if (reverse) {
      ledger.Charge(neighbor, w, piece);
    } else {
      ledger.Charge(w, neighbor, piece);
    }
  }
  // Snapshot/restore time is its own clock round of pure transfer: no
  // compute, `bytes` over `workers` messages. A single worker's ring is
  // local, so its round costs nothing on the wire.
  const bool on_wire = workers > 1;
  cluster_->clock().AdvanceRound(0.0, on_wire ? bytes : 0,
                                 on_wire ? workers : 0);
}

void CheckpointStore::Save(uint32_t round, std::vector<uint8_t> blob) {
  const uint64_t bytes = blob.size();
  blob_ = std::move(blob);
  round_ = round;
  has_checkpoint_ = true;
  ++checkpoints_taken_;
  checkpoint_bytes_ += bytes;
  ChargeRing(bytes, /*reverse=*/false);
}

const std::vector<uint8_t>& CheckpointStore::Restore() {
  GAL_CHECK(has_checkpoint_) << "restore without a checkpoint";
  restored_bytes_ += blob_.size();
  ChargeRing(blob_.size(), /*reverse=*/true);
  return blob_;
}

RecoverySession::RecoverySession(ClusterRuntime* cluster, FaultPlan plan)
    : cluster_(cluster), plan_(std::move(plan)), store_(cluster) {
  GAL_CHECK(cluster_ != nullptr);
  consumed_.assign(plan_.failures().size(), 0);
  for (const FailureEvent& f : plan_.failures()) {
    if (f.worker < cluster_->num_workers()) {
      wants_initial_ = true;
      break;
    }
  }
}

void RecoverySession::ScaleCompute(uint32_t round,
                                   std::span<double> per_worker_seconds) {
  if (plan_.slowdowns().empty()) return;
  for (size_t w = 0; w < per_worker_seconds.size(); ++w) {
    per_worker_seconds[w] *=
        plan_.SlowdownFactor(static_cast<uint32_t>(w), round);
  }
}

void RecoverySession::Commit(uint32_t round, std::vector<uint8_t> state) {
  store_.Save(round, std::move(state));
  stats_.checkpoints_taken = store_.checkpoints_taken();
  stats_.checkpoint_bytes = store_.checkpoint_bytes();
}

const std::vector<uint8_t>* RecoverySession::OnFailure(
    uint32_t round, uint32_t* resume_round) {
  const std::vector<FailureEvent>& failures = plan_.failures();
  bool fired = false;
  for (size_t i = 0; i < failures.size(); ++i) {
    if (consumed_[i] || failures[i].round != round) continue;
    if (failures[i].worker >= cluster_->num_workers()) {
      consumed_[i] = 1;  // inert: the plan outranges this cluster
      continue;
    }
    consumed_[i] = 1;
    fired = true;  // concurrent failures at one round share one rollback
  }
  if (!fired) return nullptr;
  GAL_CHECK(store_.has_checkpoint())
      << "failure injected with no checkpoint to roll back to";
  const std::vector<uint8_t>& blob = store_.Restore();
  const uint32_t checkpoint_round = store_.round();
  *resume_round =
      checkpoint_round == kInitialRound ? 0 : checkpoint_round + 1;
  ++stats_.failures_recovered;
  stats_.recomputed_rounds +=
      checkpoint_round == kInitialRound ? round + 1 : round - checkpoint_round;
  stats_.restored_bytes = store_.restored_bytes();
  return &blob;
}

uint32_t RecoverySession::RebalanceCandidate(
    uint32_t round, std::span<const double> per_worker_load) {
  const RebalanceConfig& rb = plan_.rebalance();
  if (!rb.enabled || per_worker_load.size() < 2) return kNoWorker;
  if (migrations_done_ >= rb.max_migrations) return kNoWorker;
  if (round < cooldown_until_round_) return kNoWorker;

  double total = 0.0;
  size_t heaviest = 0;
  std::vector<double> scaled(per_worker_load.size());
  for (size_t w = 0; w < per_worker_load.size(); ++w) {
    scaled[w] = per_worker_load[w] *
                plan_.SlowdownFactor(static_cast<uint32_t>(w), round);
    total += scaled[w];
    if (scaled[w] > scaled[heaviest]) heaviest = w;
  }
  const double others_mean =
      (total - scaled[heaviest]) /
      static_cast<double>(per_worker_load.size() - 1);
  if (others_mean <= 0.0 ||
      scaled[heaviest] <= rb.threshold * others_mean) {
    straggler_ = kNoWorker;
    sustained_rounds_ = 0;
    return kNoWorker;
  }
  if (static_cast<uint32_t>(heaviest) != straggler_) {
    straggler_ = static_cast<uint32_t>(heaviest);
    sustained_rounds_ = 0;
  }
  if (++sustained_rounds_ < rb.sustain_rounds) return kNoWorker;
  sustained_rounds_ = 0;
  cooldown_until_round_ = round + 1 + rb.cooldown_rounds;
  return straggler_;
}

void RecoverySession::CommitMigration(
    uint32_t from, std::span<const std::pair<uint32_t, uint64_t>> per_dst_bytes,
    uint64_t vertices_moved) {
  uint64_t total_bytes = 0;
  for (const auto& [dst, bytes] : per_dst_bytes) {
    cluster_->ledger().Charge(from, dst, bytes);
    total_bytes += bytes;
  }
  // Migration is its own clock round of pure transfer time.
  cluster_->clock().AdvanceRound(0.0, total_bytes, per_dst_bytes.size());
  ++migrations_done_;
  ++stats_.rebalances;
  stats_.migrated_vertices += vertices_moved;
  stats_.migration_bytes += total_bytes;
}

}  // namespace gal
