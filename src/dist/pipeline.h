#ifndef GAL_DIST_PIPELINE_H_
#define GAL_DIST_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/network.h"
#include "cluster/virtual_clock.h"

namespace gal {

/// A mini-batch training pipeline in the BGL/ByteGNN/P3 mold: the epoch
/// is a sequence of batches, each passing through ordered stages
/// (sample -> gather -> compute). Serial execution runs stages
/// back-to-back; pipelined execution gives each stage its own
/// executor(s) so stage s of batch b overlaps stage s+1 of batch b-1 —
/// the "factored"/operator-scheduling design the survey describes.
/// ByteGNN's two-level scheduling adds the second level: a stage may be
/// widened to k executors pulling batches from its queue, so a slow
/// stage stops bottlenecking the pipe without rewriting it.
struct PipelineStage {
  std::string name;
  /// Processes one batch (by index). Runtime is whatever the callable
  /// actually takes; the executor measures it.
  std::function<void(uint32_t batch)> work;
  /// Executors for this stage in the pipelined pass. 0 means "default":
  /// the GAL_STAGE_EXECUTORS env var if set to a positive integer, else
  /// 1. Stages whose work mutates state shared across batches (e.g. an
  /// optimizer step) must keep 1 executor; stages writing only per-batch
  /// slots can be widened freely.
  uint32_t executors = 0;
};

/// Resolved executor count for one stage: `configured` if positive, else
/// the GAL_STAGE_EXECUTORS env override if positive, else 1 (a malformed
/// value warns once).
uint32_t ResolveStageExecutors(uint32_t configured);

/// One stage of the *modeled* pipeline: a per-batch busy-time row plus
/// how many executors the virtual clock may schedule it on.
struct ModeledStageSpec {
  std::string name;
  std::vector<double> busy;  // seconds, one entry per batch
  uint32_t executors = 1;
};

/// Builds a modeled *network* stage whose per-batch busy time is what
/// the cost model charges for that batch's traffic — the survey's
/// "communication as a pipeline stage" (P3/Dorylus overlap). `executors`
/// models parallel channels/links.
ModeledStageSpec ModeledNetworkStage(const std::string& name,
                                     const NetworkCostModel& cost,
                                     const std::vector<uint64_t>& bytes,
                                     const std::vector<uint64_t>& messages,
                                     uint32_t executors = 1);

/// Result of replaying recorded per-stage, per-batch busy times through
/// a virtual clock with k_s executors per stage and batch-ordered
/// handoff: stage s may start batch b once (a) one of its k_s executors
/// is free and (b) stage s-1 finished batch b; batches are admitted to
/// each stage in ascending order. With k_s == 1 everywhere this is the
/// classic one-executor-per-stage pipeline. This is the *modeled*
/// pipeline — deterministic and independent of how many cores the host
/// happens to have, matching how the survey's systems (and the rest of
/// the simulated cluster, e.g. VirtualClock) report overlap
/// analytically.
struct ModeledPipelineResult {
  double serial_seconds = 0.0;     // Σ over stages and batches
  double pipelined_seconds = 0.0;  // virtual-clock makespan
  double speedup = 1.0;            // serial / pipelined
  /// Longest single-batch stage chain (max_b Σ_s busy[s][b]) — the
  /// latency critical path: no schedule finishes faster even with
  /// unlimited executors per stage.
  double critical_path_seconds = 0.0;
  /// Stage with the largest total busy time *per executor*
  /// (busy / k_s); its per-executor total is the throughput lower bound
  /// on the makespan.
  size_t bottleneck_stage = 0;
  double bottleneck_busy_seconds = 0.0;  // per-executor busy of that stage
  /// Executors the schedule assumed for each stage.
  std::vector<uint32_t> stage_executors;
  /// Per-stage virtual-clock accounting, summed over the stage's
  /// executors. For every stage:
  ///   fill + stall + busy + drain == k_s * pipelined_seconds.
  std::vector<double> stage_busy_seconds;   // Σ_b busy[s][b]
  std::vector<double> stage_fill_seconds;   // idle before first batch
  std::vector<double> stage_stall_seconds;  // idle waiting for upstream
  std::vector<double> stage_drain_seconds;  // idle after last batch
  /// busy / (k_s * makespan): how much of the stage's executor capacity
  /// did useful work.
  std::vector<double> stage_occupancy;
};

/// Replays `busy[s][b]` (stage s, batch b; all rows the same length)
/// through the virtual clock with one executor per stage. Pure function
/// — the unit of testability for the modeled executor.
ModeledPipelineResult ModelPipelineSchedule(
    const std::vector<std::vector<double>>& busy);

/// k-executor form: stages carry their own busy rows and executor
/// counts (use ModeledNetworkStage for cost-model-charged comm stages).
ModeledPipelineResult ModelPipelineSchedule(
    const std::vector<ModeledStageSpec>& stages);

/// Replays VirtualClock rounds as the 2-stage {compute, comm} modeled
/// pipeline: stage 0 is each round's max-worker compute time on one
/// executor, stage 1 a ModeledNetworkStage charged each round's recorded
/// traffic on `comm_channels` executors. serial_seconds is the
/// barriered BSP total (what the clock itself accumulated);
/// pipelined_seconds is what a system overlapping round r's
/// communication with round r+1's compute would pay. This is how
/// TrainDistGcn derives its comm_channels overlap from the clock.
ModeledPipelineResult ModelClusterOverlap(
    const std::vector<ClusterRound>& rounds, const NetworkCostModel& cost,
    uint32_t comm_channels = 1);

/// Per-stage observability of one RunPipeline call.
struct PipelineStageStats {
  std::string name;
  /// Executors this stage ran with in the pipelined pass.
  uint32_t executors = 1;
  /// Busy seconds accumulated during the serial pass (pass 1).
  double serial_busy_seconds = 0.0;
  /// Busy seconds accumulated during the pipelined pass (pass 2) — kept
  /// separate from the serial pass because thread contention can make
  /// them differ, and the stall accounting is relative to this pass.
  double pipelined_busy_seconds = 0.0;
  /// Measured executor occupancy of the pipelined pass:
  /// pipelined_busy / (executors * pipelined wall).
  double occupancy = 0.0;
  /// Modeled (virtual clock) idle accounting, from the serial-pass times.
  double modeled_fill_seconds = 0.0;
  double modeled_stall_seconds = 0.0;
  double modeled_drain_seconds = 0.0;
  double modeled_occupancy = 0.0;
  /// Per-batch busy distribution (serial pass).
  double busy_p50_seconds = 0.0;
  double busy_p95_seconds = 0.0;
  double busy_max_seconds = 0.0;
  /// Measured per-batch wait-for-work distribution (pipelined pass; an
  /// executor's wait before its first batch is its measured fill time).
  double stall_p50_seconds = 0.0;
  double stall_p95_seconds = 0.0;
  double stall_max_seconds = 0.0;
};

struct PipelineReport {
  /// std::thread::hardware_concurrency() at run time. When this is
  /// smaller than the total executor count, CPU-bound stages cannot
  /// actually overlap and the *measured* speedup is meaningless — use
  /// the modeled numbers, which schedule on a virtual clock.
  unsigned hardware_concurrency = 0;
  bool overlap_feasible = false;  // hardware_concurrency >= Σ executors
  /// Σ over stages of resolved executor counts — the worker threads the
  /// pipelined pass leased from the CoreBudget.
  uint32_t total_executors = 0;

  // Measured (wall clock, real threads).
  double serial_seconds = 0.0;     // pass 1 wall time
  double pipelined_seconds = 0.0;  // pass 2 wall time, workers pre-spawned
  double measured_speedup = 1.0;   // serial / pipelined

  // Modeled (virtual clock over the serial pass's recorded times, with
  // the same per-stage executor counts as the measured pass).
  double modeled_pipelined_seconds = 0.0;
  double modeled_speedup = 1.0;
  double critical_path_seconds = 0.0;
  size_t bottleneck_stage = 0;

  std::vector<PipelineStageStats> stages;
  std::vector<std::string> stage_names;  // convenience view of stages[].name

  /// The serial pass's recorded per-batch busy rows, with the resolved
  /// executor counts — exactly what the modeled numbers above were
  /// computed from. Benches re-model executor what-ifs from this single
  /// trace (ModelPipelineSchedule with edited executor counts) so sweep
  /// rows are comparable instead of each re-measuring its own trace.
  std::vector<ModeledStageSpec> serial_stage_traces;

  /// One-line human summary (measured vs modeled).
  std::string Summary() const;
};

/// Runs `num_batches` through the stages twice — serially and pipelined
/// — and reports measured wall times for both, plus the modeled pipeline
/// obtained by replaying the serial pass's per-batch stage times through
/// ModelPipelineSchedule (same executor counts).
///
/// The pipelined pass is a two-level task-engine: one shared ThreadPool
/// hosts k_s long-running executors per stage (k_s from
/// PipelineStage::executors / GAL_STAGE_EXECUTORS); executors pull batch
/// indices from bounded per-stage ready queues. Handoff is
/// batch-ordered: stage s+1's queue receives batch b only after stage s
/// finished it, and batches are released downstream in ascending order
/// even when a widened stage completes them out of order. The pass
/// leases its executor threads from the process CoreBudget, so tensor
/// kernels called inside a stage shrink their shard fan-out instead of
/// oversubscribing the machine (see common/core_budget.h).
///
/// Stage callables must be safe to call again for the second execution.
/// Every (stage, batch) pair executes exactly once per pass, so outputs
/// written to per-batch slots are identical — bit for bit — between the
/// serial pass and any executor configuration. The pipelined wall timer
/// starts only after every executor has been spawned and parked at the
/// start line, so thread-creation overhead is not charged to the
/// pipelined run.
PipelineReport RunPipeline(const std::vector<PipelineStage>& stages,
                           uint32_t num_batches);

}  // namespace gal

#endif  // GAL_DIST_PIPELINE_H_
