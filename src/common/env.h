#ifndef GAL_COMMON_ENV_H_
#define GAL_COMMON_ENV_H_

#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"

/// The one table of `GAL_*` environment knobs and the only reader of
/// the environment. A knob resolves where its consumer asks, every time
/// it asks. Values are matched whole (" 5", "+5", "0x10", "nan" and "of"
/// are malformed), and each row follows one of two policies:
///   - warn once, keep the default (every row but the fault plan's):
///     Lookup logs `VAR="value" is not <values>; using <fallback>` once
///     per process and row, and the caller keeps its fallback;
///   - strict `Status` (the five GAL_CLUSTER_FAULT_* rows): Parse's
///     InvalidArgument, which FaultPlan::FromEnv returns as is.
/// README.md's knob table lists the rows in this order; EnvTableTest
/// keeps it, and the knobs scripts/check.sh sets, in sync.
namespace gal::env {

enum class Knob : uint8_t {
  kTaskThreads,
  kClusterWorkers,
  kKernelThreads,
  kStageExecutors,
  kSimd,
  kGraphCompression,
  kFrontierMode,
  kFrontierAlpha,
  kFrontierBeta,
  kOocShardBytes,
  kOocBudgetBytes,
  kFaultCheckpoint,
  kFaultFail,
  kFaultSlow,
  kFaultSeed,
  kFaultRebalance,
};

/// How a row's value is spelled; one whole-value parser per kind.
enum class Kind : uint8_t {
  kSwitch,     // 1/on/true/yes or 0/off/false/no; empty counts as unset
  kInteger,    // decimal digits within [min, max]
  kNumber,     // digits, at most one point, an optional exponent; > 0
  kChoice,     // one of the row's spellings
  kFailures,   // w@r[,w@r]*
  kSlowdowns,  // w:f[@a-b][,...] with f >= 1 and a < b
};

enum class Policy : uint8_t { kWarnOnce, kStrict };

struct KnobSpec {
  Knob knob;
  const char* name;
  Kind kind;
  Policy policy;
  const char* values;         // as the README and the warning say them
  const char* default_value;  // as the README says it
  /// kChoice: the '|'-separated spellings in index order. kSwitch: an
  /// extra "off|on" pair, or null.
  const char* spellings = nullptr;
  uint64_t min = 0;  // kInteger bounds
  uint64_t max = UINT64_MAX;
};

/// Every row, in Knob order.
std::span<const KnobSpec> Table();
const KnobSpec& Spec(Knob knob);

/// One item of a kFailures or kSlowdowns value.
struct Event {
  uint32_t worker = 0;
  uint32_t round = 0;  // the failing round, or the window's first round
  uint32_t until = UINT32_MAX;
  double factor = 1.0;
};

/// A parsed value; the row's kind says which member holds it.
struct Value {
  bool on = false;
  uint64_t integer = 0;
  double number = 0.0;
  uint32_t choice = 0;  // index into the spellings
  std::vector<Event> events;
};

/// The pure parse under every lookup: `text` as the value of `knob`'s
/// variable, null when unset. Unset (and empty, for a switch) is
/// nullopt; a value the row does not accept is InvalidArgument.
Result<std::optional<Value>> Parse(Knob knob, const char* text);

/// The variable's text right now, null when unset.
const char* Text(Knob knob);

/// Logs `message` as a warning the first time it is called for `knob`
/// in this process.
void WarnOnce(Knob knob, const std::string& message);

/// The warn-once policy: the knob's value when set and well formed,
/// else nullopt; a malformed value also warns, naming `fallback`.
template <typename T>
std::optional<Value> Lookup(Knob knob, const T& fallback) {
  const char* text = Text(knob);
  Result<std::optional<Value>> value = Parse(knob, text);
  if (value.ok()) return std::move(value).value();
  std::ostringstream message;
  message << Spec(knob).name << "=\"" << text << "\" is not "
          << Spec(knob).values << "; using " << fallback;
  WarnOnce(knob, message.str());
  return std::nullopt;
}

}  // namespace gal::env

#endif  // GAL_COMMON_ENV_H_
