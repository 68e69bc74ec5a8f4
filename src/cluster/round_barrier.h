#ifndef GAL_CLUSTER_ROUND_BARRIER_H_
#define GAL_CLUSTER_ROUND_BARRIER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cluster/checkpoint.h"
#include "cluster/cluster.h"
#include "cluster/fault.h"

namespace gal {

/// The one bulk-synchronous round barrier under every distributed engine:
/// TLAV supersteps (tlav/bsp_runtime.h), dist-GCN epochs and TLAG
/// triangle chunk-rounds. A round body computes, charges its exchanges
/// to the cluster ledger and adds each simulated worker's compute
/// seconds; EndRound() then runs the RecoverySession hook order
/// (cluster/checkpoint.h): straggler scaling, one clock round priced
/// from the ledger's cross-worker delta since the previous barrier,
/// checkpoint (`save`), failure rollback (`load`), and rebalancing
/// (`migrate`). Checkpoint, restore and migration charges book their
/// own clock rounds, so a run's clock rounds add up to exactly its
/// ledger delta. The barrier takes no graph: placement stays with the
/// engine.
class RoundBarrier {
 public:
  struct Hooks {
    /// Writes everything the next round reads; `load` reads it back.
    std::function<void(BlobWriter&)> save;
    std::function<void(BlobReader&)> load;
    /// Moves `fraction` of worker `from`'s vertices away, installs the
    /// new partition on the cluster and returns the moved vertices.
    /// Unset when the engine does not rebalance.
    std::function<std::vector<VertexId>(uint32_t from, double fraction)>
        migrate;
    /// The state a migration ships for vertex v.
    std::function<uint64_t(VertexId)> vertex_bytes;
  };

  RoundBarrier(ClusterRuntime* cluster, FaultPlan plan);

  /// Begins a run at round 0: marks the ledger and clock, opens the
  /// run's RecoverySession and, when the plan schedules a failure,
  /// saves the pre-round-0 rollback target. A rebalancing engine must
  /// have installed its partition on the cluster.
  void Start(Hooks hooks);

  /// 0-based index of the round about to run (rewinds on a rollback).
  uint32_t round() const { return round_; }

  /// Adds compute seconds to `worker`'s share of the running round.
  /// Distinct workers may add concurrently.
  void AddCompute(uint32_t worker, double seconds) {
    compute_[worker] += seconds;
  }

  /// Ends the running round. Returns false when a failure rolled the run
  /// back to a checkpoint; round() is then the round to replay.
  bool EndRound();

  /// Ends the running round with the straggler scaling and the clock
  /// round only: no checkpoint, failure or rebalance point.
  void PriceRound();

  /// This run's ledger traffic, modeled seconds and clock rounds.
  TrafficSnapshot Traffic() const;
  double ModeledSeconds() const;
  std::vector<ClusterRound> Rounds() const;
  const FaultStats& fault_stats() const { return session_->stats(); }

 private:
  void Price();
  std::vector<uint8_t> Snapshot() const;
  void Rebalance();

  ClusterRuntime* cluster_;
  FaultPlan plan_;
  Hooks hooks_;
  std::optional<RecoverySession> session_;
  std::vector<double> compute_;
  TrafficSnapshot ledger_start_;
  TrafficSnapshot ledger_at_barrier_;
  size_t clock_start_ = 0;
  uint32_t round_ = 0;
};

}  // namespace gal

#endif  // GAL_CLUSTER_ROUND_BARRIER_H_
