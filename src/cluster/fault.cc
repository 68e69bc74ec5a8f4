#include "cluster/fault.h"

#include <iterator>
#include <optional>

#include "cluster/cluster.h"
#include "common/env.h"
#include "common/rng.h"

namespace gal {
namespace {

constexpr env::Knob kFaultKnobs[] = {
    env::Knob::kFaultCheckpoint, env::Knob::kFaultFail, env::Knob::kFaultSlow,
    env::Knob::kFaultSeed, env::Knob::kFaultRebalance};

/// FromEnv's body; a rejected value names its row in *rejected.
Result<FaultPlan> PlanFromEnv(env::Knob* rejected) {
  std::optional<env::Value> values[std::size(kFaultKnobs)];
  for (size_t i = 0; i < std::size(kFaultKnobs); ++i) {
    Result<std::optional<env::Value>> value =
        env::Parse(kFaultKnobs[i], env::Text(kFaultKnobs[i]));
    if (!value.ok()) {
      *rejected = kFaultKnobs[i];
      return value.status();
    }
    values[i] = std::move(value).value();
  }
  const auto& [checkpoint, fail, slow, seed, rebalance] = values;

  FaultPlan plan;
  if (checkpoint) {
    plan.CheckpointEvery(static_cast<uint32_t>(checkpoint->integer));
  }
  if (fail) {
    for (const env::Event& e : fail->events) {
      plan.FailWorkerAt(e.worker, e.round);
    }
  }
  if (slow) {
    for (const env::Event& e : slow->events) {
      plan.SlowWorker(e.worker, e.factor, e.round, e.until);
    }
  }
  if (seed) {
    // Explicit events win over the seeded schedule; the seed only fills
    // in whatever FAIL/SLOW left unspecified.
    FaultPlan::RandomOptions options;
    options.seed = seed->integer;
    options.num_workers = ResolveClusterWorkers(0);
    if (plan.checkpoint_every() > 0) {
      options.checkpoint_every = plan.checkpoint_every();
    }
    options.failures = fail ? 0 : 1;
    options.stragglers = slow ? 0 : 1;
    const FaultPlan seeded = FaultPlan::Random(options);
    plan.CheckpointEvery(seeded.checkpoint_every());
    for (const FailureEvent& f : seeded.failures()) {
      plan.FailWorkerAt(f.worker, f.round);
    }
    for (const SlowdownEvent& s : seeded.slowdowns()) {
      plan.SlowWorker(s.worker, s.factor, s.from_round, s.until_round);
    }
  }
  if (rebalance && rebalance->choice == 1) plan.Rebalance(RebalanceConfig{});
  // A failure schedule needs a checkpoint cadence to bound recomputation;
  // recovery without one replays from the initial snapshot, which is
  // legal but almost never what an env user meant — so it is allowed,
  // not an error.
  return plan;
}

}  // namespace

Result<FaultPlan> FaultPlan::FromEnv() {
  env::Knob rejected{};
  return PlanFromEnv(&rejected);
}

FaultPlan FaultPlan::FromEnvOrWarn() {
  env::Knob rejected{};
  Result<FaultPlan> plan = PlanFromEnv(&rejected);
  if (plan.ok()) return std::move(plan).value();
  env::WarnOnce(rejected, "ignoring fault-injection env: " +
                              plan.status().message());
  return FaultPlan{};
}

FaultPlan FaultPlan::Random(const RandomOptions& options) {
  FaultPlan plan;
  plan.CheckpointEvery(options.checkpoint_every);
  Rng rng(options.seed);
  const uint32_t horizon = std::max(2u, options.horizon_rounds);
  const uint32_t workers = std::max(1u, options.num_workers);
  for (uint32_t i = 0; i < options.failures; ++i) {
    plan.FailWorkerAt(static_cast<uint32_t>(rng.Uniform(workers)),
                      1 + static_cast<uint32_t>(rng.Uniform(horizon - 1)));
  }
  for (uint32_t i = 0; i < options.stragglers; ++i) {
    const uint32_t worker = static_cast<uint32_t>(rng.Uniform(workers));
    const double span = options.max_slowdown - options.min_slowdown;
    const double factor = options.min_slowdown + span * rng.NextDouble();
    const uint32_t from =
        static_cast<uint32_t>(rng.Uniform(horizon - 1));
    plan.SlowWorker(worker, factor, from, UINT32_MAX);
  }
  return plan;
}

}  // namespace gal
