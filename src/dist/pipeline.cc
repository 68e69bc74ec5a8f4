#include "dist/pipeline.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/core_budget.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/threadpool.h"
#include "common/timer.h"

namespace gal {

ModeledStageSpec ModeledNetworkStage(const std::string& name,
                                     const NetworkCostModel& cost,
                                     const std::vector<uint64_t>& bytes,
                                     const std::vector<uint64_t>& messages,
                                     uint32_t executors) {
  GAL_CHECK(messages.empty() || messages.size() == bytes.size());
  ModeledStageSpec spec;
  spec.name = name;
  spec.executors = std::max(1u, executors);
  spec.busy.reserve(bytes.size());
  for (size_t b = 0; b < bytes.size(); ++b) {
    const uint64_t msgs = messages.empty() ? 1 : messages[b];
    spec.busy.push_back(cost.TransferSeconds(bytes[b], msgs));
  }
  return spec;
}

ModeledPipelineResult ModelClusterOverlap(
    const std::vector<ClusterRound>& rounds, const NetworkCostModel& cost,
    uint32_t comm_channels) {
  std::vector<ModeledStageSpec> stages(2);
  stages[0].name = "compute";
  stages[0].executors = 1;
  stages[0].busy.reserve(rounds.size());
  std::vector<uint64_t> bytes;
  std::vector<uint64_t> messages;
  bytes.reserve(rounds.size());
  messages.reserve(rounds.size());
  for (const ClusterRound& r : rounds) {
    stages[0].busy.push_back(r.compute_seconds);
    bytes.push_back(r.comm_bytes);
    messages.push_back(r.comm_messages);
  }
  stages[1] = ModeledNetworkStage("comm", cost, bytes, messages,
                                  std::max(1u, comm_channels));
  return ModelPipelineSchedule(stages);
}

ModeledPipelineResult ModelPipelineSchedule(
    const std::vector<std::vector<double>>& busy) {
  std::vector<ModeledStageSpec> stages(busy.size());
  for (size_t s = 0; s < busy.size(); ++s) {
    stages[s].busy = busy[s];
    stages[s].executors = 1;
  }
  return ModelPipelineSchedule(stages);
}

ModeledPipelineResult ModelPipelineSchedule(
    const std::vector<ModeledStageSpec>& stages) {
  GAL_CHECK(!stages.empty());
  const size_t num_stages = stages.size();
  const size_t num_batches = stages[0].busy.size();
  for (const ModeledStageSpec& s : stages) {
    GAL_CHECK(s.busy.size() == num_batches);
    GAL_CHECK(s.executors >= 1);
  }

  ModeledPipelineResult result;
  result.stage_executors.resize(num_stages);
  for (size_t s = 0; s < num_stages; ++s) {
    result.stage_executors[s] = stages[s].executors;
  }
  result.stage_busy_seconds.assign(num_stages, 0.0);
  result.stage_fill_seconds.assign(num_stages, 0.0);
  result.stage_stall_seconds.assign(num_stages, 0.0);
  result.stage_drain_seconds.assign(num_stages, 0.0);
  result.stage_occupancy.assign(num_stages, 0.0);
  if (num_batches == 0) return result;

  // Per-executor virtual-clock state, kept per stage so fill/stall/drain
  // can be settled once the global makespan is known.
  struct ExecutorClock {
    std::vector<double> free_at;  // when executor e can take its next batch
    std::vector<bool> started;
    std::vector<double> fill;
    std::vector<double> stall;
  };
  std::vector<ExecutorClock> clocks(num_stages);

  // prev_finish[b]: when stage s-1 finished batch b (all zeros for the
  // source stage). With k executors, a stage's batches no longer finish
  // in admission order, so the full column is kept per stage.
  std::vector<double> prev_finish(num_batches, 0.0);
  std::vector<double> cur_finish(num_batches, 0.0);
  for (size_t s = 0; s < num_stages; ++s) {
    const uint32_t k = stages[s].executors;
    ExecutorClock& clock = clocks[s];
    clock.free_at.assign(k, 0.0);
    clock.started.assign(k, false);
    clock.fill.assign(k, 0.0);
    clock.stall.assign(k, 0.0);
    // Batches are admitted in ascending order (batch-ordered handoff)
    // onto the earliest-free executor; lowest index wins ties so the
    // schedule is deterministic.
    for (uint32_t b = 0; b < num_batches; ++b) {
      uint32_t e = 0;
      for (uint32_t i = 1; i < k; ++i) {
        if (clock.free_at[i] < clock.free_at[e]) e = i;
      }
      const double upstream_done = prev_finish[b];
      const double start = std::max(clock.free_at[e], upstream_done);
      if (!clock.started[e]) {
        clock.started[e] = true;
        clock.fill[e] = start;
      } else {
        clock.stall[e] += std::max(0.0, upstream_done - clock.free_at[e]);
      }
      const double t = stages[s].busy[b];
      clock.free_at[e] = start + t;
      cur_finish[b] = clock.free_at[e];
      result.stage_busy_seconds[s] += t;
      result.serial_seconds += t;
    }
    std::swap(prev_finish, cur_finish);
  }
  // prev_finish now holds the last stage's finish column.
  double makespan = 0.0;
  for (uint32_t b = 0; b < num_batches; ++b) {
    makespan = std::max(makespan, prev_finish[b]);
  }
  result.pipelined_seconds = makespan;

  for (size_t s = 0; s < num_stages; ++s) {
    const uint32_t k = stages[s].executors;
    const ExecutorClock& clock = clocks[s];
    for (uint32_t e = 0; e < k; ++e) {
      if (clock.started[e]) {
        result.stage_fill_seconds[s] += clock.fill[e];
        result.stage_stall_seconds[s] += clock.stall[e];
        result.stage_drain_seconds[s] += makespan - clock.free_at[e];
      } else {
        // An executor that never got a batch idled the whole run waiting
        // for a first batch: all fill.
        result.stage_fill_seconds[s] += makespan;
      }
    }
    result.stage_occupancy[s] =
        makespan > 0.0
            ? result.stage_busy_seconds[s] / (static_cast<double>(k) * makespan)
            : 0.0;
    const double per_executor_busy =
        result.stage_busy_seconds[s] / static_cast<double>(k);
    if (per_executor_busy > result.bottleneck_busy_seconds) {
      result.bottleneck_busy_seconds = per_executor_busy;
      result.bottleneck_stage = s;
    }
  }

  // Latency critical path: longest single-batch chain (executor counts
  // cannot shorten a single batch's serial stage chain).
  for (uint32_t b = 0; b < num_batches; ++b) {
    double chain = 0.0;
    for (size_t s = 0; s < num_stages; ++s) chain += stages[s].busy[b];
    result.critical_path_seconds =
        std::max(result.critical_path_seconds, chain);
  }

  result.speedup = result.pipelined_seconds > 0.0
                       ? result.serial_seconds / result.pipelined_seconds
                       : 1.0;
  return result;
}

std::string PipelineReport::Summary() const {
  std::ostringstream os;
  os << "measured " << measured_speedup << "x, modeled " << modeled_speedup
     << "x over " << stages.size() << " stages / " << total_executors
     << " executors (bottleneck "
     << (bottleneck_stage < stage_names.size()
             ? stage_names[bottleneck_stage]
             : "?")
     << ", hw_concurrency " << hardware_concurrency
     << (overlap_feasible ? "" : " — overlap infeasible") << ")";
  return os.str();
}

namespace {

/// Shared state of one pipelined pass: per-stage bounded ready queues
/// with batch-ordered release. One mutex guards everything — executor
/// transitions are rare (per batch, not per element) and a single lock
/// keeps the handoff protocol trivially race-free under TSan.
struct PipelineRun {
  struct StageState {
    std::deque<uint32_t> ready;  // released, not yet taken (s > 0)
    size_t capacity = 2;         // bound on `ready`
    uint32_t next_admit = 0;     // source stage: next batch to hand out
    uint32_t taken = 0;          // batches handed to an executor
    std::vector<char> done;      // per-batch completion flags
    uint32_t released = 0;       // prefix of `done` already handed down
  };

  explicit PipelineRun(size_t num_stages, uint32_t num_batches)
      : batches(num_batches), stages(num_stages) {
    for (StageState& s : stages) s.done.assign(num_batches, 0);
  }

  /// Moves completed batches of stage s downstream, in batch order, up
  /// to the downstream queue bound. Call with `mu` held.
  void Release(size_t s) {
    if (s + 1 >= stages.size()) return;
    StageState& up = stages[s];
    StageState& down = stages[s + 1];
    while (up.released < batches && up.done[up.released] &&
           down.ready.size() < down.capacity) {
      down.ready.push_back(up.released);
      ++up.released;
    }
  }

  uint32_t batches;
  std::vector<StageState> stages;
  std::mutex mu;
  std::condition_variable cv;
  bool go = false;
};

}  // namespace

PipelineReport RunPipeline(const std::vector<PipelineStage>& stages,
                           uint32_t num_batches) {
  GAL_CHECK(!stages.empty());
  PipelineReport report;
  report.hardware_concurrency = std::thread::hardware_concurrency();
  report.stages.resize(stages.size());
  for (size_t s = 0; s < stages.size(); ++s) {
    GAL_CHECK(stages[s].executors >= 1);
    report.total_executors += stages[s].executors;
    report.stages[s].name = stages[s].name;
    report.stages[s].executors = stages[s].executors;
    report.stage_names.push_back(stages[s].name);
  }
  report.overlap_feasible =
      report.hardware_concurrency >= report.total_executors;

  // Pass 1: serial, recording per-stage per-batch busy times — these
  // feed both the busy histograms and the modeled replay.
  std::vector<std::vector<double>> busy(
      stages.size(), std::vector<double>(num_batches, 0.0));
  std::vector<Histogram> busy_hist(stages.size());
  {
    Timer wall;
    for (uint32_t b = 0; b < num_batches; ++b) {
      for (size_t s = 0; s < stages.size(); ++s) {
        Timer t;
        stages[s].work(b);
        busy[s][b] = t.ElapsedSeconds();
        busy_hist[s].Observe(busy[s][b]);
        report.stages[s].serial_busy_seconds += busy[s][b];
      }
    }
    report.serial_seconds = wall.ElapsedSeconds();
  }

  // Modeled pipeline: replay the recorded times through the virtual
  // clock with the same executor counts the measured pass will use.
  // Deterministic given the recorded times, and correct on any core
  // count (a 1-core host records valid busy times serially).
  std::vector<ModeledStageSpec> specs(stages.size());
  for (size_t s = 0; s < stages.size(); ++s) {
    specs[s].name = stages[s].name;
    specs[s].busy = busy[s];
    specs[s].executors = stages[s].executors;
  }
  ModeledPipelineResult modeled = ModelPipelineSchedule(specs);
  report.serial_stage_traces = specs;
  report.modeled_pipelined_seconds = modeled.pipelined_seconds;
  report.modeled_speedup = modeled.speedup;
  report.critical_path_seconds = modeled.critical_path_seconds;
  report.bottleneck_stage = modeled.bottleneck_stage;
  for (size_t s = 0; s < stages.size(); ++s) {
    report.stages[s].modeled_fill_seconds = modeled.stage_fill_seconds[s];
    report.stages[s].modeled_stall_seconds = modeled.stage_stall_seconds[s];
    report.stages[s].modeled_drain_seconds = modeled.stage_drain_seconds[s];
    report.stages[s].modeled_occupancy = modeled.stage_occupancy[s];
  }

  // Pass 2: pipelined on the two-level task-engine backend — a shared
  // ThreadPool hosts k_s long-running executors per stage; stage s may
  // process batch b once stage s-1 finished and *released* it
  // (batch-ordered handoff). Executors are pre-spawned and parked at a
  // start line so thread-creation overhead is not charged to the
  // pipelined wall time. The executor threads are leased from the
  // process CoreBudget for the duration of the pass, which shrinks the
  // fan-out of tensor kernels called inside stages accordingly.
  {
    PipelineRun run(stages.size(), num_batches);
    for (size_t s = 0; s < stages.size(); ++s) {
      run.stages[s].capacity = std::max<size_t>(2, 2 * stages[s].executors);
    }
    std::vector<Histogram> pipelined_hist(stages.size());
    std::vector<Histogram> stall_hist(stages.size());

    StageExecutorLease lease(report.total_executors);
    ThreadPool pool(report.total_executors);
    for (size_t s = 0; s < stages.size(); ++s) {
      for (uint32_t e = 0; e < stages[s].executors; ++e) {
        pool.Submit([&, s] {
          {
            std::unique_lock<std::mutex> lock(run.mu);
            run.cv.wait(lock, [&] { return run.go; });
          }
          for (;;) {
            Timer wait;
            uint32_t b = 0;
            {
              std::unique_lock<std::mutex> lock(run.mu);
              PipelineRun::StageState& st = run.stages[s];
              if (s == 0) {
                if (st.next_admit >= num_batches) break;
                b = st.next_admit++;
              } else {
                run.cv.wait(lock, [&] {
                  return !st.ready.empty() || st.taken == num_batches;
                });
                if (st.ready.empty()) break;
                b = st.ready.front();
                st.ready.pop_front();
                ++st.taken;
                // A slot freed up: pull more completed upstream batches
                // into this stage's queue, still in batch order.
                run.Release(s - 1);
                run.cv.notify_all();
              }
            }
            stall_hist[s].Observe(wait.ElapsedSeconds());
            {
              ScopedSpan span(&pipelined_hist[s]);
              stages[s].work(b);
            }
            {
              std::lock_guard<std::mutex> lock(run.mu);
              run.stages[s].done[b] = 1;
              run.Release(s);
            }
            run.cv.notify_all();
          }
        });
      }
    }
    Timer wall;
    {
      std::lock_guard<std::mutex> lock(run.mu);
      run.go = true;
      wall.Reset();
    }
    run.cv.notify_all();
    pool.Wait();
    report.pipelined_seconds = wall.ElapsedSeconds();
    for (size_t s = 0; s < stages.size(); ++s) {
      report.stages[s].pipelined_busy_seconds = pipelined_hist[s].sum();
      report.stages[s].occupancy =
          report.pipelined_seconds > 0.0
              ? pipelined_hist[s].sum() /
                    (static_cast<double>(stages[s].executors) *
                     report.pipelined_seconds)
              : 0.0;
      report.stages[s].stall_p50_seconds = stall_hist[s].P50();
      report.stages[s].stall_p95_seconds = stall_hist[s].P95();
      report.stages[s].stall_max_seconds = stall_hist[s].Max();
    }
  }

  for (size_t s = 0; s < stages.size(); ++s) {
    report.stages[s].busy_p50_seconds = busy_hist[s].P50();
    report.stages[s].busy_p95_seconds = busy_hist[s].P95();
    report.stages[s].busy_max_seconds = busy_hist[s].Max();
  }
  report.measured_speedup = report.pipelined_seconds > 0.0
                                ? report.serial_seconds /
                                      report.pipelined_seconds
                                : 1.0;
  return report;
}

}  // namespace gal
