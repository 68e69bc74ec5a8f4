#include "tensor/kernel_context.h"

#include <algorithm>
#include <thread>

#include "common/env.h"
#include "common/logging.h"

namespace gal {
namespace {

/// Below this many scalar operations a kernel runs inline: the pool's
/// dispatch + wakeup latency would dominate the work itself.
constexpr uint64_t kSerialGrain = 1 << 15;

}  // namespace

KernelContext& KernelContext::Get() {
  static KernelContext ctx;
  return ctx;
}

KernelContext::KernelContext() { SetNumThreads(0); }

size_t KernelContext::DefaultNumThreads() {
  const uint32_t fallback = std::max(1u, std::thread::hardware_concurrency());
  const auto env = env::Lookup(env::Knob::kKernelThreads, fallback);
  return env ? env->integer : fallback;
}

void KernelContext::SetNumThreads(size_t n) {
  GAL_CHECK(in_flight_.load(std::memory_order_acquire) == 0)
      << "KernelContext::SetNumThreads called while "
      << in_flight_.load(std::memory_order_relaxed)
      << " kernel dispatch(es) are in flight — resizing would join the "
         "pool out from under running shards. Finish (or do not issue) "
         "kernels before changing the thread count.";
  if (n == 0) n = DefaultNumThreads();
  if (n == num_threads_ && (n == 1) == (pool_ == nullptr)) return;
  pool_.reset();  // join old workers before spawning the new pool
  if (n > 1) pool_ = std::make_unique<ThreadPool>(n);
  num_threads_ = n;
}

size_t KernelContext::ShardCountFor(uint64_t work) const {
  if (num_threads_ <= 1 || work < kSerialGrain) return 1;
  const uint64_t by_work =
      std::min<uint64_t>(num_threads_, work / kSerialGrain);
  // Two-level coordination: live pipeline stage executors shrink the
  // per-kernel fan-out so executors * shards stays within the machine.
  return static_cast<size_t>(
      std::min<uint64_t>(by_work, CoreBudget::Get().KernelShardCap()));
}

void KernelContext::RunShards(size_t shards,
                              const std::function<void(size_t)>& fn) {
  if (shards <= 1 || pool_ == nullptr) {
    for (size_t s = 0; s < shards; ++s) fn(s);
    return;
  }
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  pool_->ParallelFor(shards, fn);
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
}

void KernelContext::ParallelFor1D(
    size_t n, uint64_t work_per_item,
    const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  const size_t shards =
      std::min<size_t>(n, ShardCountFor(n * std::max<uint64_t>(1, work_per_item)));
  if (shards <= 1) {
    fn(0, n);
    return;
  }
  RunShards(shards, [&](size_t s) {
    const size_t begin = n * s / shards;
    const size_t end = n * (s + 1) / shards;
    if (begin < end) fn(begin, end);
  });
}

std::vector<StageTimingStat> KernelContext::KernelStats() const {
  return {
      StageTimingStat::FromHistogram("gemm", gemm_hist_),
      StageTimingStat::FromHistogram("spmm", spmm_hist_),
      StageTimingStat::FromHistogram("elementwise", elementwise_hist_),
  };
}

void KernelContext::ResetKernelStats() {
  gemm_hist_.Reset();
  spmm_hist_.Reset();
  elementwise_hist_.Reset();
}

}  // namespace gal
