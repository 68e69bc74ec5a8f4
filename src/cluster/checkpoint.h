#ifndef GAL_CLUSTER_CHECKPOINT_H_
#define GAL_CLUSTER_CHECKPOINT_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/fault.h"
#include "common/logging.h"

namespace gal {

/// Byte-blob serializer for checkpoint snapshots. Engines append PODs,
/// POD vectors, and strings; the blob's size is what the CheckpointStore
/// charges to the ledger, so serializing exactly the recovery-relevant
/// state keeps the modeled checkpoint cost honest.
class BlobWriter {
 public:
  template <typename T>
  void Pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t offset = bytes_.size();
    bytes_.resize(offset + sizeof(T));
    std::memcpy(bytes_.data() + offset, &value, sizeof(T));
  }

  template <typename T>
  void Vec(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    Pod<uint64_t>(values.size());
    const size_t offset = bytes_.size();
    bytes_.resize(offset + values.size() * sizeof(T));
    if (!values.empty()) {
      std::memcpy(bytes_.data() + offset, values.data(),
                  values.size() * sizeof(T));
    }
  }

  void Str(const std::string& s) {
    Pod<uint64_t>(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  std::vector<uint8_t> Take() && { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Mirror-image reader; a read past the end is a fatal error (a
/// checkpoint blob is produced and consumed by the same engine build, so
/// a shape mismatch is a bug, not an input condition).
class BlobReader {
 public:
  explicit BlobReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  T Pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    GAL_CHECK(offset_ + sizeof(T) <= bytes_.size())
        << "checkpoint blob underflow";
    T value;
    std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> Vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const uint64_t n = Pod<uint64_t>();
    GAL_CHECK(offset_ + n * sizeof(T) <= bytes_.size())
        << "checkpoint blob underflow";
    std::vector<T> values(n);
    if (n > 0) {
      std::memcpy(values.data(), bytes_.data() + offset_, n * sizeof(T));
    }
    offset_ += n * sizeof(T);
    return values;
  }

  std::string Str() {
    const uint64_t n = Pod<uint64_t>();
    GAL_CHECK(offset_ + n <= bytes_.size()) << "checkpoint blob underflow";
    std::string s(reinterpret_cast<const char*>(bytes_.data() + offset_), n);
    offset_ += n;
    return s;
  }

  bool exhausted() const { return offset_ == bytes_.size(); }

 private:
  std::span<const uint8_t> bytes_;
  size_t offset_ = 0;
};

/// Holds the latest engine-state snapshot and charges its movement: a
/// Save books the blob's bytes to the TrafficLedger on a ring of worker
/// pairs (worker w ships its state share to w+1 mod W) and advances the
/// VirtualClock one round of pure transfer time. At W=1 the charge is
/// local — checkpointing to yourself is off the wire but still data
/// touched — and its round has no wire time. Restore charges the
/// read-back the same way. Engines never pay for snapshots they don't
/// take: an empty FaultPlan means no store traffic at all.
class CheckpointStore {
 public:
  /// Sentinel round of the pre-round-0 snapshot (the initial state a
  /// failure before any interval checkpoint rolls back to).
  static constexpr uint32_t kInitialRound = UINT32_MAX;

  explicit CheckpointStore(ClusterRuntime* cluster) : cluster_(cluster) {
    GAL_CHECK(cluster_ != nullptr);
  }

  void Save(uint32_t round, std::vector<uint8_t> blob);

  bool has_checkpoint() const { return has_checkpoint_; }
  uint32_t round() const { return round_; }

  /// Charges the read-back of the latest snapshot and returns it.
  const std::vector<uint8_t>& Restore();

  uint32_t checkpoints_taken() const { return checkpoints_taken_; }
  uint64_t checkpoint_bytes() const { return checkpoint_bytes_; }
  uint64_t restored_bytes() const { return restored_bytes_; }

 private:
  void ChargeRing(uint64_t bytes, bool reverse);

  ClusterRuntime* cluster_;
  std::vector<uint8_t> blob_;
  uint32_t round_ = kInitialRound;
  bool has_checkpoint_ = false;
  uint32_t checkpoints_taken_ = 0;
  uint64_t checkpoint_bytes_ = 0;
  uint64_t restored_bytes_ = 0;
};

/// Cumulative fault-tolerance accounting of one engine run, read back
/// into each engine family's own stats shape.
struct FaultStats {
  uint32_t checkpoints_taken = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t restored_bytes = 0;
  uint32_t failures_recovered = 0;
  uint32_t recomputed_rounds = 0;
  uint32_t rebalances = 0;
  uint64_t migrated_vertices = 0;
  uint64_t migration_bytes = 0;
};

/// One engine run's view of a FaultPlan: the checkpoint /
/// failure-recovery / straggler-mitigation driver. Its one caller is
/// the RoundBarrier (cluster/round_barrier.h) every engine family ends
/// its rounds on, which calls the hooks in the order documented there.
/// The session consumes each failure event once, so a replayed round
/// does not re-fail; slowdown windows do re-apply on replay (the
/// straggler is still slow the second time through).
class RecoverySession {
 public:
  static constexpr uint32_t kInitialRound = CheckpointStore::kInitialRound;
  static constexpr uint32_t kNoWorker = UINT32_MAX;

  RecoverySession(ClusterRuntime* cluster, FaultPlan plan);

  /// True when the run must snapshot its pristine state before round
  /// 0 (any live failure schedule: recovery needs somewhere to roll back
  /// to even if the failure lands before the first interval checkpoint).
  bool WantsInitialCheckpoint() const {
    return wants_initial_ && !store_.has_checkpoint();
  }

  /// Multiplies each worker's measured compute seconds by its scheduled
  /// slowdown factor for this round.
  void ScaleCompute(uint32_t round, std::span<double> per_worker_seconds);

  bool ShouldCheckpoint(uint32_t round) const {
    return plan_.checkpoint_every() > 0 &&
           (round + 1) % plan_.checkpoint_every() == 0;
  }

  /// Snapshots `state` as of the end of `round` (or kInitialRound for
  /// the pre-run snapshot), charging it to the ledger and clock.
  void Commit(uint32_t round, std::vector<uint8_t> state);

  /// Probes the failure schedule at the end of `round`. When a failure
  /// of a worker this cluster actually has fires, consumes it, charges
  /// the restore, updates the stats, and returns the blob to
  /// deserialize; `*resume_round` is the round to re-execute from.
  /// Returns nullptr when the round completes cleanly.
  const std::vector<uint8_t>* OnFailure(uint32_t round,
                                        uint32_t* resume_round);

  /// Sustained-straggler detector over a deterministic per-worker load
  /// signal (the barrier passes vertex counts per part; the session
  /// scales by the round's slowdown factors). Returns the worker to shed
  /// load from, or kNoWorker. Purely observational — the engine performs
  /// the migration and the barrier reports it via CommitMigration.
  uint32_t RebalanceCandidate(uint32_t round,
                              std::span<const double> per_worker_load);

  /// Books a completed migration: per-destination byte charges on the
  /// ledger, one clock round of transfer time, stats, and the rebalance
  /// cooldown.
  void CommitMigration(
      uint32_t from,
      std::span<const std::pair<uint32_t, uint64_t>> per_dst_bytes,
      uint64_t vertices_moved);

  const FaultStats& stats() const { return stats_; }

 private:
  ClusterRuntime* cluster_;
  FaultPlan plan_;
  CheckpointStore store_;
  std::vector<uint8_t> consumed_;  // parallel to plan_.failures()
  bool wants_initial_ = false;
  uint32_t straggler_ = kNoWorker;
  uint32_t sustained_rounds_ = 0;
  uint32_t cooldown_until_round_ = 0;
  uint32_t migrations_done_ = 0;
  FaultStats stats_;
};

}  // namespace gal

#endif  // GAL_CLUSTER_CHECKPOINT_H_
