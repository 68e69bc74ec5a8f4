#ifndef GAL_DIST_DIST_GCN_H_
#define GAL_DIST_DIST_GCN_H_

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/fault.h"
#include "common/metrics.h"
#include "dist/quantization.h"
#include "gnn/dataset.h"
#include "partition/partition.h"

namespace gal {

/// Partitioning strategies the distributed trainer can be run under.
enum class PartitionScheme : uint8_t {
  kHash,        // Pregel/DistDGL-default baseline
  kRange,
  kLdg,         // streaming greedy
  kMultilevel,  // METIS stand-in (DistDGL/DGCL)
  kBfsVoronoi,  // ByteGNN/BGL seed-centric blocks
};

/// Model-synchronization paradigms from the survey's §3.
enum class SyncMode : uint8_t {
  kBsp,               // fresh halo exchange every epoch
  kBoundedStaleness,  // refresh every `staleness_bound` epochs (P3/Dorylus)
  kSancus,            // drift-triggered broadcast skipping
};

struct DistGcnConfig {
  uint32_t num_workers = 4;
  PartitionScheme partition = PartitionScheme::kHash;
  SyncMode sync = SyncMode::kBsp;
  uint32_t staleness_bound = 4;
  /// Sancus: broadcast layer activations only when their mean absolute
  /// drift since the last broadcast exceeds this fraction of the
  /// activation scale.
  double sancus_drift_threshold = 0.05;
  Quantization quantization = Quantization::kNone;
  /// EC-Graph-style error compensation on top of quantization.
  bool error_compensation = false;
  /// P3: partition raw features by dimension; layer-0 runs hybrid
  /// model/data parallelism with partial-aggregate all-reduce instead
  /// of raw-feature halo exchange.
  bool p3_feature_split = false;
  NetworkCostModel network;
  /// When true, communication of one epoch overlaps the next epoch's
  /// computation in the simulated-time model (pipelined systems).
  bool overlap_comm_compute = false;
  /// Modeled parallel network channels: the comm stage of the modeled
  /// compute->comm pipeline gets this many executors in the virtual
  /// clock (k-executor scheduling; >1 models multi-channel/multi-NIC
  /// overlap a la ByteGNN's two-level scheduler).
  uint32_t comm_channels = 1;

  uint32_t hidden_dim = 16;
  uint32_t epochs = 40;
  float lr = 0.05f;
  uint64_t seed = 1;

  /// Shared simulated-cluster substrate. When set, the trainer adopts
  /// its worker count and cost model (overriding `num_workers` and
  /// `network`), charges halo/all-reduce traffic to its ledger, ends
  /// each epoch and the final evaluation pass as one round on its
  /// RoundBarrier (cluster/round_barrier.h), and installs the job's
  /// partition on it. When null the trainer owns a private runtime.
  ClusterRuntime* cluster = nullptr;

  /// Shared fault-tolerance schedule (cluster/fault.h), driven at the
  /// epoch barrier: checkpoints snapshot model weights, Adam moments,
  /// and every stale channel (matrix + EC residual); a worker failure
  /// rolls the trainer back to the last checkpoint and replays, with
  /// checkpoint/restore bytes on the ledger and their transfer time on
  /// the clock. Training is epoch-deterministic, so a recovered run's
  /// losses and accuracy are bit-identical to the failure-free run.
  /// Rebalancing applies only under semantics-preserving configs (BSP +
  /// fp32, no EC/P3) — see DESIGN.md.
  FaultPlan faults = FaultPlan::FromEnvOrWarn();
};

struct DistGcnReport {
  std::vector<double> epoch_loss;
  std::vector<double> epoch_test_accuracy;
  double final_test_accuracy = 0.0;

  uint64_t comm_bytes = 0;          // all cross-worker traffic
  uint64_t halo_rows_exchanged = 0; // embedding rows that crossed the wire
  uint64_t broadcasts_skipped = 0;  // Sancus / staleness savings
  uint64_t broadcasts_sent = 0;
  uint64_t edge_cut = 0;            // of the chosen partition

  /// Fault-tolerance accounting of this run (cluster/checkpoint.h):
  /// checkpoint/restore volume, recovered failures, replayed epochs,
  /// and straggler-triggered migrations.
  uint32_t checkpoints_taken = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t restored_bytes = 0;
  uint32_t failures_recovered = 0;
  uint32_t recomputed_epochs = 0;
  uint32_t rebalances = 0;
  uint64_t migration_bytes = 0;

  double compute_seconds = 0.0;       // measured math time
  double comm_seconds = 0.0;          // modeled wire time
  /// Modeled seconds of the whole run, from the cluster VirtualClock's
  /// rounds replayed through ModelPipelineSchedule: the barriered serial
  /// total without overlap, the pipelined makespan with
  /// overlap_comm_compute.
  double simulated_epoch_seconds = 0.0;

  /// Per-round traces behind the modeled overlap replay, exposed so
  /// benches can re-model alternative schedules (e.g. comm-channel
  /// sweeps) without retraining: one entry per epoch, one for the final
  /// evaluation pass, and one per checkpoint, restore or migration.
  std::vector<double> epoch_compute_trace;   // seconds, data-parallel share
  std::vector<uint64_t> epoch_comm_bytes;    // wire volume per epoch
  std::vector<uint64_t> epoch_comm_messages; // wire messages per epoch

  /// Measured per-epoch span summaries (forward / backward / optimizer
  /// step), p50/p95/max over epochs — the same stage-level
  /// observability RunPipeline reports for batch pipelines.
  std::vector<StageTimingStat> stage_timings;

  /// Kernel-class attribution of the run's compute time ("gemm" /
  /// "spmm" / "elementwise"), from the KernelContext span histograms.
  /// TrainDistGcn resets the process-wide kernel histograms at entry, so
  /// these cover exactly this training run.
  std::vector<StageTimingStat> kernel_timings;

  /// Modeled comm/compute overlap: the per-epoch {compute, comm} times
  /// replayed through the virtual-clock pipeline executor
  /// (ModelPipelineSchedule) — the comm stage is a modeled *network
  /// stage* charged from `NetworkCostModel` per-epoch traffic, with
  /// `config.comm_channels` executors — independent of this host's core
  /// count. `overlap_bottleneck_stage` is 0 for compute, 1 for comm.
  double modeled_overlap_epoch_seconds = 0.0;
  double modeled_overlap_speedup = 1.0;
  uint32_t overlap_bottleneck_stage = 0;
  /// Executor occupancy of the modeled {compute, comm} stages:
  /// busy / (executors * makespan) — how busy each side of the overlap
  /// pipeline stays.
  std::vector<double> overlap_stage_occupancy;
};

/// Trains a 2-layer GCN on the dataset over a simulated `num_workers`
/// cluster, with the communication behavior of the configured paradigm
/// fully accounted. The math runs in one process; distribution shows up
/// as (a) which embedding rows cross the wire and when, (b) the lossy /
/// stale values remote readers actually aggregate.
DistGcnReport TrainDistGcn(const NodeClassificationDataset& dataset,
                           const DistGcnConfig& config);

/// The halo of each worker: remote vertices whose embeddings the worker
/// must read to aggregate its own rows. Exposed for benches/tests.
std::vector<std::vector<VertexId>> ComputeHalos(const Graph& g,
                                                const VertexPartition& parts);

/// Builds the partition for a scheme (seeds: training vertices, used by
/// the seed-centric scheme).
VertexPartition MakePartition(const Graph& g, PartitionScheme scheme,
                              uint32_t num_parts,
                              const std::vector<VertexId>& seeds);

const char* PartitionSchemeName(PartitionScheme scheme);
const char* SyncModeName(SyncMode mode);
const char* QuantizationName(Quantization scheme);

}  // namespace gal

#endif  // GAL_DIST_DIST_GCN_H_
