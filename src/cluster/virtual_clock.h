#ifndef GAL_CLUSTER_VIRTUAL_CLOCK_H_
#define GAL_CLUSTER_VIRTUAL_CLOCK_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "cluster/network.h"

namespace gal {

/// One bulk-synchronous round as the clock recorded it: the slowest
/// worker's compute time plus the cost-model time of the round's
/// cross-worker traffic.
struct ClusterRound {
  double compute_seconds = 0.0;   // max over workers
  uint64_t comm_bytes = 0;
  uint64_t comm_messages = 0;
  double comm_seconds = 0.0;      // cost.TransferSeconds(bytes, messages)
  double round_seconds = 0.0;     // compute + comm (the BSP barrier model)
};

/// Models the wall time of a simulated-cluster job: each round costs
/// `max over workers(compute) + TransferSeconds(comm)` — compute is
/// measured on the host, communication is charged by the NetworkCostModel,
/// so the modeled seconds are comparable across engines and deterministic
/// for a fixed traffic trace regardless of host core count. Rounds are
/// recorded so callers can replay them through the modeled pipeline
/// executor (compute/comm overlap what-ifs; see ModelClusterOverlap in
/// dist/pipeline.h).
///
/// Thread-safe; one clock may be shared by several engines run in
/// sequence (benches do), each attributing its own rounds via marks from
/// rounds().
class VirtualClock {
 public:
  explicit VirtualClock(NetworkCostModel cost = {}) : cost_(cost) {}

  /// Advances by one BSP round; returns the round's modeled seconds.
  double AdvanceRound(std::span<const double> per_worker_compute,
                      uint64_t comm_bytes, uint64_t comm_messages);
  /// Single-compute-value form (callers that already folded the max).
  double AdvanceRound(double max_compute_seconds, uint64_t comm_bytes,
                      uint64_t comm_messages);

  /// Modeled seconds elapsed so far (Σ round_seconds).
  double seconds() const;
  size_t rounds() const;
  /// Seconds accumulated by rounds [first_round, rounds()).
  double SecondsSince(size_t first_round) const;
  /// Copy of rounds [first_round, rounds()) — the replay trace.
  std::vector<ClusterRound> RoundsSince(size_t first_round) const;

  const NetworkCostModel& cost_model() const { return cost_; }

  void Reset();

 private:
  NetworkCostModel cost_;
  mutable std::mutex mu_;
  std::vector<ClusterRound> rounds_;
  double seconds_ = 0.0;
};

}  // namespace gal

#endif  // GAL_CLUSTER_VIRTUAL_CLOCK_H_
