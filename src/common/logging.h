#ifndef GAL_COMMON_LOGGING_H_
#define GAL_COMMON_LOGGING_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>

namespace gal {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Global minimum level; messages below it are dropped. Defaults to Info.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

namespace internal_logging {

/// Collects one log line and emits it (thread-safely) on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// LogMessage that aborts the process after emitting. Used by GAL_CHECK.
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalLogMessage();

  FatalLogMessage(const FatalLogMessage&) = delete;
  FatalLogMessage& operator=(const FatalLogMessage&) = delete;

  template <typename T>
  FatalLogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal_logging
}  // namespace gal

#define GAL_LOG(level)                                             \
  ::gal::internal_logging::LogMessage(::gal::LogLevel::k##level, \
                                      __FILE__, __LINE__)

namespace gal::internal {

/// One process-wide warning per env variable; repeated resolutions of
/// the same malformed value stay quiet. The policy of every lenient
/// `GAL_*` knob: a value that does not parse warns once and the knob
/// keeps its default.
template <typename T>
inline void WarnOnceBadEnv(std::atomic<bool>& warned, const char* var,
                           const char* value, const char* expected,
                           const T& fallback) {
  if (warned.exchange(true)) return;
  GAL_LOG(Warning) << var << "=\"" << value << "\" is not " << expected
                   << "; using " << fallback;
}

/// The spellings of an on/off env switch, matched against the whole
/// value.
inline constexpr const char* kEnvSwitchSpellings =
    "one of 1/on/true/yes/0/off/false/no";

/// Full-string parse of an on/off switch: "1", "on", "true" and "yes"
/// set *on to true; "0", "off", "false" and "no" set it to false. Any
/// other text, prefixes and typos such as "of" included, returns false
/// and leaves *on alone.
inline bool ParseEnvSwitch(std::string_view text, bool* on) {
  for (std::string_view s : {"1", "on", "true", "yes"}) {
    if (text == s) {
      *on = true;
      return true;
    }
  }
  for (std::string_view s : {"0", "off", "false", "no"}) {
    if (text == s) {
      *on = false;
      return true;
    }
  }
  return false;
}

/// Strict full-string parse of a non-negative decimal integer: digits
/// only, at most 2^64 - 1. "abc", "-1", "64M", "1e6", " 5" and "" are
/// all malformed and leave *out alone.
inline bool ParseEnvUint64(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  uint64_t v = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(*p - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

/// Strict full-string parse of a positive integer that fits in 32 bits:
/// "12abc", "", "-3" and "0" are all malformed.
inline bool ParsePositiveEnvInt(const char* text, uint32_t* out) {
  uint64_t v = 0;
  if (!ParseEnvUint64(text, &v) || v == 0 || v > UINT32_MAX) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

/// Strict full-string parse of a positive finite number: "15x", "abc",
/// "" and "-2" are malformed (atof would read "15x" as 15 and "abc" as 0).
inline bool ParsePositiveEnvDouble(const char* text, double* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (*end != '\0' || !(v > 0.0) || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// A positive-integer knob under the lenient policy: the value of `var`
/// when it parses, else `fallback` — after one warning per process when
/// the variable is set but malformed.
inline uint32_t PositiveEnvIntOr(const char* var, std::atomic<bool>& warned,
                                 uint32_t fallback) {
  const char* env = std::getenv(var);
  if (env == nullptr) return fallback;
  uint32_t v = 0;
  if (ParsePositiveEnvInt(env, &v)) return v;
  WarnOnceBadEnv(warned, var, env, "a positive integer", fallback);
  return fallback;
}

}  // namespace gal::internal

/// Crashes with a message when an invariant is violated. Active in all
/// build modes: a database-style engine should fail loudly, not corrupt.
#define GAL_CHECK(cond)                                              \
  if (cond) {                                                        \
  } else                                                             \
    ::gal::internal_logging::FatalLogMessage(__FILE__, __LINE__, #cond)

#define GAL_CHECK_OK(expr)                                  \
  do {                                                      \
    ::gal::Status gal_check_status_ = (expr);               \
    GAL_CHECK(gal_check_status_.ok()) << gal_check_status_; \
  } while (0)

#ifdef NDEBUG
#define GAL_DCHECK(cond) GAL_CHECK(true)
#else
#define GAL_DCHECK(cond) GAL_CHECK(cond)
#endif

#endif  // GAL_COMMON_LOGGING_H_
