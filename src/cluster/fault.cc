#include "cluster/fault.h"

#include <iterator>
#include <optional>

#include "common/env.h"

namespace gal {
namespace {

constexpr env::Knob kFaultKnobs[] = {env::Knob::kFaultCheckpoint,
                                     env::Knob::kFaultFail};

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
  const auto& [checkpoint, fail] = values;

  FaultPlan plan;
  if (checkpoint) {
    plan.CheckpointEvery(static_cast<uint32_t>(checkpoint->integer));
  }
  if (fail) {
    for (const env::Event& e : fail->events) {
      plan.FailWorkerAt(e.worker, e.round);
    }
  }
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

}  // namespace gal
