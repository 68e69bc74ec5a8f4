#ifndef GAL_CLUSTER_CLUSTER_H_
#define GAL_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <thread>

#include "cluster/ledger.h"
#include "cluster/network.h"
#include "cluster/virtual_clock.h"
#include "common/env.h"
#include "common/logging.h"
#include "partition/partition.h"

namespace gal {

/// Worker-thread count for engines that execute simulated workers on
/// host threads: an explicit request wins, else the GAL_TASK_THREADS
/// environment variable, else all hardware threads. (Host threads are an
/// execution detail — results are bit-identical at any count.) A
/// malformed env value warns once and falls through.
inline uint32_t ResolveTaskThreads(uint32_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  const uint32_t fallback = hw == 0 ? 1 : hw;
  const auto env = env::Lookup(env::Knob::kTaskThreads, fallback);
  return env ? static_cast<uint32_t>(env->integer) : fallback;
}

struct ClusterOptions {
  /// Simulated-cluster width, at least 1 (TrafficLedger checks it). 4 is
  /// the width every engine config also defaults to. Unlike host
  /// threads, the worker count is semantically visible — it decides the
  /// partition and therefore what traffic crosses the wire.
  uint32_t num_workers = 4;
  NetworkCostModel network;
};

/// The one simulated-cluster substrate under every distributed component
/// (TLAV engine, TLAG task engine, dist-GNN trainer): `num_workers`
/// simulated workers, the VertexPartition that places data on them, a
/// thread-safe TrafficLedger every engine charges, and a VirtualClock
/// that turns per-round compute + charged traffic into modeled seconds.
/// Engines accept a non-owning `ClusterRuntime*`; passing the same
/// runtime to several jobs puts a PageRank superstep, a triangle-mining
/// round and a GCN epoch on one communication/wall-time axis.
///
/// The ledger and clock are safe to charge from any thread. The
/// partition is installed by whichever job currently runs (engines call
/// InstallPartition at start of run) and must not be swapped while a job
/// is in flight — jobs sharing a runtime run in sequence.
class ClusterRuntime {
 public:
  explicit ClusterRuntime(ClusterOptions options = {})
      : num_workers_(options.num_workers),
        cost_(options.network),
        ledger_(num_workers_),
        clock_(options.network) {}

  uint32_t num_workers() const { return num_workers_; }
  const NetworkCostModel& cost_model() const { return cost_; }

  TrafficLedger& ledger() { return ledger_; }
  const TrafficLedger& ledger() const { return ledger_; }
  VirtualClock& clock() { return clock_; }
  const VirtualClock& clock() const { return clock_; }

  /// The current data placement. Engines install the partition they run
  /// under; a shared runtime tracks the most recent job's placement.
  const VertexPartition& partition() const { return partition_; }
  bool has_partition() const { return !partition_.assignment.empty(); }
  void InstallPartition(VertexPartition partition) {
    GAL_CHECK(partition.num_parts == num_workers_)
        << "partition width " << partition.num_parts
        << " != cluster width " << num_workers_;
    partition_ = std::move(partition);
  }

 private:
  uint32_t num_workers_;
  NetworkCostModel cost_;
  TrafficLedger ledger_;
  VirtualClock clock_;
  VertexPartition partition_;
};

}  // namespace gal

#endif  // GAL_CLUSTER_CLUSTER_H_
