#ifndef GAL_TENSOR_KERNEL_CONTEXT_H_
#define GAL_TENSOR_KERNEL_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/core_budget.h"
#include "common/metrics.h"
#include "common/threadpool.h"

namespace gal {

/// Process-wide executor + instrumentation shared by every tensor kernel
/// (dense GEMM, SpMM, elementwise). Kernels shard work over output rows,
/// so each output element is produced by exactly one shard with a fixed
/// accumulation order — results are bit-identical regardless of thread
/// count.
///
/// Thread count resolution: `GAL_KERNEL_THREADS` env override if set to
/// a positive integer, else `hardware_concurrency` (a malformed value
/// warns once). With one thread no pool is spawned and every kernel
/// runs inline (serial fallback).
class KernelContext {
 public:
  /// The singleton; first call resolves the thread-count policy and
  /// spawns the pool.
  static KernelContext& Get();

  KernelContext(const KernelContext&) = delete;
  KernelContext& operator=(const KernelContext&) = delete;

  /// Rebuilds the worker pool with `n` threads; `n == 0` re-resolves the
  /// default policy (env override, else hardware concurrency), so a
  /// GAL_KERNEL_THREADS change after first use is honored by calling
  /// SetNumThreads(0). Calling while kernels are in flight — including
  /// from inside a kernel shard — is rejected with a fatal error rather
  /// than silently corrupting the pool (the old pool would be joined
  /// from one of its own workers).
  void SetNumThreads(size_t n);
  size_t num_threads() const { return num_threads_; }

  /// Runs fn(shard) for shard in [0, shards). Serial inline loop when
  /// `shards <= 1` or the context is single-threaded. Shards must write
  /// disjoint output.
  void RunShards(size_t shards, const std::function<void(size_t)>& fn);

  /// Splits [0, n) into at most ShardCountFor(n * work_per_item)
  /// contiguous ranges and runs fn(begin, end) on each — the elementwise
  /// fast path.
  void ParallelFor1D(size_t n, uint64_t work_per_item,
                     const std::function<void(size_t, size_t)>& fn);

  /// How many shards a job of `work` scalar operations deserves: 1 below
  /// the serial grain (parallel dispatch would cost more than it saves),
  /// else capped by the thread count AND by the process CoreBudget — when
  /// E pipeline stage executors are live, the cap shrinks to
  /// max(1, hardware / E) so stage- and kernel-level parallelism share
  /// the machine instead of multiplying (see common/core_budget.h).
  size_t ShardCountFor(uint64_t work) const;

  /// Per-kernel-class span sinks; every kernel entry point records its
  /// wall time into one of these so training loops can attribute compute
  /// to kernel class (see DistGcnReport::kernel_timings).
  Histogram* gemm_hist() { return &gemm_hist_; }
  Histogram* spmm_hist() { return &spmm_hist_; }
  Histogram* elementwise_hist() { return &elementwise_hist_; }

  /// Summaries of the three kernel-class histograms, named
  /// "gemm" / "spmm" / "elementwise".
  std::vector<StageTimingStat> KernelStats() const;
  void ResetKernelStats();

 private:
  KernelContext();
  static size_t DefaultNumThreads();

  size_t num_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads_ == 1
  /// Kernel dispatches currently running; guards SetNumThreads.
  std::atomic<uint32_t> in_flight_{0};

  Histogram gemm_hist_;
  Histogram spmm_hist_;
  Histogram elementwise_hist_;
};

}  // namespace gal

#endif  // GAL_TENSOR_KERNEL_CONTEXT_H_
