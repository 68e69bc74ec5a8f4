#ifndef GAL_CLUSTER_FAULT_H_
#define GAL_CLUSTER_FAULT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace gal {

/// A scheduled worker failure: the worker "crashes" at the end of BSP
/// round `round` (after its compute and message flush), forcing the job
/// to roll back to the last checkpoint and replay. Events with
/// `worker >= num_workers` of the runtime they run under are inert, so
/// one env-supplied plan can be applied to jobs of any width.
struct FailureEvent {
  uint32_t worker = 0;
  uint32_t round = 0;
};

/// A scheduled straggler: worker `worker` computes `factor` times slower
/// during rounds [from_round, until_round). Overlapping windows on the
/// same worker multiply.
struct SlowdownEvent {
  uint32_t worker = 0;
  double factor = 1.0;
  uint32_t from_round = 0;
  uint32_t until_round = UINT32_MAX;
};

/// Live-rebalancing policy: when one worker's (slowdown-scaled) load
/// stays above `threshold` x the mean of the other workers for
/// `sustain_rounds` consecutive rounds, the engine migrates
/// `migrate_fraction` of its vertices to the other workers (via
/// RebalanceAway, the LDG-style greedy), books the moved state to the
/// TrafficLedger, and waits `cooldown_rounds` before re-triggering.
struct RebalanceConfig {
  bool enabled = false;
  double threshold = 2.0;
  uint32_t sustain_rounds = 3;
  double migrate_fraction = 0.5;
  uint32_t cooldown_rounds = 4;
  uint32_t max_migrations = 4;
};

/// A deterministic, seed-driven schedule of cluster misbehavior — the
/// shared fault-injection substrate every engine family (TLAV, dist-GNN,
/// TLAG) consumes through a RecoverySession. A plan is pure data: the
/// same plan applied to the same job yields the same checkpoints,
/// failures, slowdowns, and (for the order-independent programs shipped
/// here) bit-identical results at any worker x host-thread combination.
///
/// Env resolution reads the five GAL_CLUSTER_FAULT_* rows of the knob
/// table (common/env.h, README's knob table) under the strict policy: a
/// checkpoint cadence, failures (w@r), slowdown windows (w:f[@a-b]), a
/// seed that draws whatever FAIL/SLOW leave unset, and rebalancing.
class FaultPlan {
 public:
  FaultPlan() = default;

  // --- builders (chainable) -------------------------------------------
  FaultPlan& CheckpointEvery(uint32_t rounds) {
    checkpoint_every_ = rounds;
    return *this;
  }
  FaultPlan& FailWorkerAt(uint32_t worker, uint32_t round) {
    failures_.push_back({worker, round});
    return *this;
  }
  FaultPlan& SlowWorker(uint32_t worker, double factor, uint32_t from_round = 0,
                        uint32_t until_round = UINT32_MAX) {
    slowdowns_.push_back({worker, factor, from_round, until_round});
    return *this;
  }
  FaultPlan& Rebalance(RebalanceConfig config) {
    config.enabled = true;
    rebalance_ = config;
    return *this;
  }

  // --- queries ----------------------------------------------------------
  uint32_t checkpoint_every() const { return checkpoint_every_; }
  const std::vector<FailureEvent>& failures() const { return failures_; }
  const std::vector<SlowdownEvent>& slowdowns() const { return slowdowns_; }
  const RebalanceConfig& rebalance() const { return rebalance_; }

  /// True when the plan prescribes no behavior at all — the fast path
  /// every engine checks before paying any fault-tolerance machinery.
  bool empty() const {
    return checkpoint_every_ == 0 && failures_.empty() && slowdowns_.empty() &&
           !rebalance_.enabled;
  }
  bool active() const { return !empty(); }

  /// Product of the slowdown windows covering (worker, round); >= 1.
  double SlowdownFactor(uint32_t worker, uint32_t round) const {
    double factor = 1.0;
    for (const SlowdownEvent& s : slowdowns_) {
      if (s.worker == worker && round >= s.from_round &&
          round < s.until_round) {
        factor *= s.factor;
      }
    }
    return factor;
  }

  // --- construction from environment / seed -----------------------------
  /// Resolves the GAL_CLUSTER_FAULT_* variables; a malformed value is an
  /// InvalidArgument naming the variable and the offending text.
  static Result<FaultPlan> FromEnv();
  /// Like FromEnv, but a malformed value logs one warning per process
  /// and rejected row, and yields an empty plan — the default-config
  /// path engines take.
  static FaultPlan FromEnvOrWarn();

  struct RandomOptions {
    uint64_t seed = 1;
    uint32_t num_workers = 4;
    /// Rounds the schedule is drawn over (events land in [1, horizon)).
    uint32_t horizon_rounds = 16;
    uint32_t failures = 1;
    uint32_t stragglers = 1;
    double min_slowdown = 2.0;
    double max_slowdown = 8.0;
    uint32_t checkpoint_every = 4;
  };
  /// Deterministic seed-driven schedule: same options, same plan.
  static FaultPlan Random(const RandomOptions& options);

 private:
  uint32_t checkpoint_every_ = 0;
  std::vector<FailureEvent> failures_;
  std::vector<SlowdownEvent> slowdowns_;
  RebalanceConfig rebalance_;
};

}  // namespace gal

#endif  // GAL_CLUSTER_FAULT_H_
