#include "common/env.h"

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/logging.h"

namespace gal::env {
namespace {

using enum Kind;
using enum Policy;

constexpr KnobSpec kTable[] = {
    {Knob::kTaskThreads, "GAL_TASK_THREADS", kInteger, kWarnOnce,
     "a positive integer", "hardware threads", nullptr, 1, UINT32_MAX},
    {Knob::kClusterWorkers, "GAL_CLUSTER_WORKERS", kInteger, kWarnOnce,
     "a positive integer", "4", nullptr, 1, UINT32_MAX},
    {Knob::kKernelThreads, "GAL_KERNEL_THREADS", kInteger, kWarnOnce,
     "a positive integer", "hardware threads", nullptr, 1, UINT32_MAX},
    {Knob::kStageExecutors, "GAL_STAGE_EXECUTORS", kInteger, kWarnOnce,
     "a positive integer", "1", nullptr, 1, UINT32_MAX},
    {Knob::kSimd, "GAL_SIMD", kSwitch, kWarnOnce,
     "one of 1/on/true/yes/0/off/false/no", "on"},
    {Knob::kGraphCompression, "GAL_GRAPH_COMPRESSION", kSwitch, kWarnOnce,
     "delta-varint, none or one of 1/on/true/yes/0/off/false/no",
     "the build option", "none|delta-varint"},
    {Knob::kFrontierMode, "GAL_FRONTIER_MODE", kChoice, kWarnOnce,
     "one of auto|push|pull", "auto", "auto|push|pull"},
    {Knob::kFrontierAlpha, "GAL_FRONTIER_ALPHA", kNumber, kWarnOnce,
     "a positive number", "15"},
    {Knob::kFrontierBeta, "GAL_FRONTIER_BETA", kNumber, kWarnOnce,
     "a positive number", "18"},
    {Knob::kOocShardBytes, "GAL_OOC_SHARD_BYTES", kInteger, kWarnOnce,
     "a positive integer", "the writer option", nullptr, 1, UINT64_MAX},
    {Knob::kOocBudgetBytes, "GAL_OOC_BUDGET_BYTES", kInteger, kWarnOnce,
     "a non-negative integer", "the open option", nullptr, 0, UINT64_MAX},
    {Knob::kFaultCheckpoint, "GAL_CLUSTER_FAULT_CHECKPOINT", kInteger,
     kStrict, "a non-negative integer", "0 (none)", nullptr, 0, UINT32_MAX},
    {Knob::kFaultFail, "GAL_CLUSTER_FAULT_FAIL", kFailures, kStrict,
     "w@r[,w@r]*", "none"},
    {Knob::kFaultSlow, "GAL_CLUSTER_FAULT_SLOW", kSlowdowns, kStrict,
     "w:f[@a-b][,...]", "none"},
    {Knob::kFaultSeed, "GAL_CLUSTER_FAULT_SEED", kInteger, kStrict,
     "a non-negative integer", "none", nullptr, 0, UINT32_MAX},
    {Knob::kFaultRebalance, "GAL_CLUSTER_FAULT_REBALANCE", kChoice, kStrict,
     "0|1", "0", "0|1"},
};
constexpr size_t kNumKnobs = std::size(kTable);

constexpr bool RowsInKnobOrder() {
  for (size_t i = 0; i < kNumKnobs; ++i) {
    if (static_cast<size_t>(kTable[i].knob) != i) return false;
  }
  return true;
}
static_assert(RowsInKnobOrder(), "Spec(knob) indexes the table by Knob");

/// One warn-once flag per row.
std::atomic<bool> g_warned[kNumKnobs];

/// Index of `text` among the '|'-separated `spellings`, or -1.
int SpellingIndex(std::string_view spellings, std::string_view text) {
  int index = 0;
  for (size_t start = 0;; ++index) {
    const size_t bar = spellings.find('|', start);
    if (spellings.substr(start, bar - start) == text) return index;
    if (bar == std::string_view::npos) return -1;
    start = bar + 1;
  }
}

/// `aliases` is the row's extra "off|on" pair, or null.
bool ParseSwitch(std::string_view text, const char* aliases, bool* on) {
  const int index = SpellingIndex("0|off|false|no|1|on|true|yes", text);
  const int alias = aliases == nullptr ? -1 : SpellingIndex(aliases, text);
  if (index < 0 && alias < 0) return false;
  *on = index >= 4 || alias == 1;
  return true;
}

/// from_chars over the whole text: no padding, no '+', no hex prefix.
template <typename T>
bool FromChars(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), end, *out);
  return r.ec == std::errc() && r.ptr == end;
}

/// Decimal digits within [min, max].
template <typename T>
bool ParseInteger(std::string_view text, uint64_t min, uint64_t max, T* out) {
  uint64_t v = 0;
  if (!FromChars(text, &v) || v < min || v > max) return false;
  *out = static_cast<T>(v);
  return true;
}

/// Digits with at most one point and an optional exponent; positive and
/// finite, so "-2", "inf" and "nan" are rejected too.
bool ParseNumber(std::string_view text, double* out) {
  return FromChars(text, out) && *out > 0.0 && std::isfinite(*out);
}

/// One item of a kFailures ("w@r") or kSlowdowns ("w:f[@a-b]") value.
bool ParseEvent(Kind kind, std::string_view item, Event* e) {
  const size_t sep = item.find(kind == kFailures ? '@' : ':');
  if (sep == std::string_view::npos ||
      !ParseInteger(item.substr(0, sep), 0, UINT32_MAX, &e->worker)) {
    return false;
  }
  std::string_view rest = item.substr(sep + 1);
  if (kind == kFailures) {
    return ParseInteger(rest, 0, UINT32_MAX, &e->round);
  }
  if (const size_t at = rest.find('@'); at != std::string_view::npos) {
    const std::string_view window = rest.substr(at + 1);
    const size_t dash = window.find('-');
    if (dash == std::string_view::npos ||
        !ParseInteger(window.substr(0, dash), 0, UINT32_MAX, &e->round) ||
        !ParseInteger(window.substr(dash + 1), 0, UINT32_MAX, &e->until) ||
        e->until <= e->round) {
      return false;
    }
    rest = rest.substr(0, at);
  }
  return ParseNumber(rest, &e->factor) && e->factor >= 1.0;
}

bool ParseAs(const KnobSpec& spec, std::string_view text, Value* value) {
  switch (spec.kind) {
    case kSwitch:
      return ParseSwitch(text, spec.spellings, &value->on);
    case kInteger:
      return ParseInteger(text, spec.min, spec.max, &value->integer);
    case kNumber:
      return ParseNumber(text, &value->number);
    case kChoice: {
      const int index = SpellingIndex(spec.spellings, text);
      value->choice = static_cast<uint32_t>(index);
      return index >= 0;
    }
    case kFailures:
    case kSlowdowns:
      for (size_t start = 0;;) {  // ','-separated events
        const size_t comma = text.find(',', start);
        Event e;
        if (!ParseEvent(spec.kind, text.substr(start, comma - start), &e)) {
          return false;
        }
        value->events.push_back(e);
        if (comma == std::string_view::npos) return true;
        start = comma + 1;
      }
  }
  return false;
}

}  // namespace

std::span<const KnobSpec> Table() { return kTable; }

const KnobSpec& Spec(Knob knob) { return kTable[static_cast<size_t>(knob)]; }

Result<std::optional<Value>> Parse(Knob knob, const char* text) {
  const KnobSpec& spec = Spec(knob);
  if (text == nullptr || (spec.kind == kSwitch && *text == '\0')) {
    return std::optional<Value>();
  }
  Value value;
  if (!ParseAs(spec, text, &value)) {
    return Status::InvalidArgument(std::string(spec.name) + "=\"" + text +
                                   "\" is malformed");
  }
  return std::optional<Value>(std::move(value));
}

void WarnOnce(Knob knob, const std::string& message) {
  if (g_warned[static_cast<size_t>(knob)].exchange(true)) return;
  GAL_LOG(Warning) << message;
}

const char* Text(Knob knob) { return std::getenv(Spec(knob).name); }

}  // namespace gal::env
