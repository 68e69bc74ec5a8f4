#include "cluster/round_barrier.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/logging.h"

namespace gal {

RoundBarrier::RoundBarrier(ClusterRuntime* cluster, FaultPlan plan)
    : cluster_(cluster),
      plan_(std::move(plan)),
      compute_(cluster->num_workers(), 0.0) {}

void RoundBarrier::Start(Hooks hooks) {
  hooks_ = std::move(hooks);
  round_ = 0;
  std::fill(compute_.begin(), compute_.end(), 0.0);
  ledger_start_ = cluster_->ledger().Snapshot();
  clock_start_ = cluster_->clock().rounds();
  session_.emplace(cluster_, plan_);
  if (session_->WantsInitialCheckpoint()) {
    session_->Commit(RecoverySession::kInitialRound, Snapshot());
  }
  ledger_at_barrier_ = cluster_->ledger().Snapshot();
}

bool RoundBarrier::EndRound() {
  Price();
  if (session_->ShouldCheckpoint(round_)) session_->Commit(round_, Snapshot());
  uint32_t resume = 0;
  const std::vector<uint8_t>* blob = session_->OnFailure(round_, &resume);
  if (blob != nullptr) {
    BlobReader r(*blob);
    hooks_.load(r);
    GAL_CHECK(r.exhausted()) << "trailing bytes in a round checkpoint";
    round_ = resume;
  } else {
    Rebalance();
    ++round_;
  }
  // Checkpoint, restore and migration priced their own clock rounds.
  ledger_at_barrier_ = cluster_->ledger().Snapshot();
  return blob == nullptr;
}

void RoundBarrier::PriceRound() {
  Price();
  ++round_;
}

TrafficSnapshot RoundBarrier::Traffic() const {
  const TrafficSnapshot now = cluster_->ledger().Snapshot();
  return {now.cross_bytes - ledger_start_.cross_bytes,
          now.cross_messages - ledger_start_.cross_messages,
          now.local_bytes - ledger_start_.local_bytes,
          now.local_messages - ledger_start_.local_messages};
}

double RoundBarrier::ModeledSeconds() const {
  return cluster_->clock().SecondsSince(clock_start_);
}

std::vector<ClusterRound> RoundBarrier::Rounds() const {
  return cluster_->clock().RoundsSince(clock_start_);
}

/// Steps 1 and 2: the scheduled stragglers stretch their compute, and
/// the round pays for the cross-worker traffic charged since the last
/// barrier. A round that sent nothing pays no latency.
void RoundBarrier::Price() {
  session_->ScaleCompute(round_, std::span<double>(compute_));
  const TrafficSnapshot now = cluster_->ledger().Snapshot();
  cluster_->clock().AdvanceRound(
      std::span<const double>(compute_),
      now.cross_bytes - ledger_at_barrier_.cross_bytes,
      now.cross_messages - ledger_at_barrier_.cross_messages);
  std::fill(compute_.begin(), compute_.end(), 0.0);
  ledger_at_barrier_ = now;
}

std::vector<uint8_t> RoundBarrier::Snapshot() const {
  BlobWriter w;
  hooks_.save(w);
  return std::move(w).Take();
}

/// Live rebalancing: the session watches a deterministic load signal,
/// the vertex count per part of the installed partition, and names a
/// sustained straggler; the engine sheds migrate_fraction of that
/// worker's vertices, and the barrier books each moved vertex's state
/// to its new owner.
void RoundBarrier::Rebalance() {
  if (!hooks_.migrate || !plan_.rebalance().enabled) return;
  std::vector<double> load(cluster_->num_workers(), 0.0);
  for (uint32_t part : cluster_->partition().assignment) load[part] += 1.0;
  const uint32_t from =
      session_->RebalanceCandidate(round_, std::span<const double>(load));
  if (from == RecoverySession::kNoWorker) return;
  const std::vector<VertexId> moved =
      hooks_.migrate(from, plan_.rebalance().migrate_fraction);
  if (moved.empty()) return;
  const std::vector<uint32_t>& owner = cluster_->partition().assignment;
  std::vector<uint64_t> dst_bytes(cluster_->num_workers(), 0);
  for (VertexId v : moved) dst_bytes[owner[v]] += hooks_.vertex_bytes(v);
  std::vector<std::pair<uint32_t, uint64_t>> per_dst;
  for (uint32_t w = 0; w < dst_bytes.size(); ++w) {
    if (dst_bytes[w] > 0) per_dst.emplace_back(w, dst_bytes[w]);
  }
  session_->CommitMigration(from, per_dst, moved.size());
}

}  // namespace gal
