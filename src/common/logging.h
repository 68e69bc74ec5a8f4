#ifndef GAL_COMMON_LOGGING_H_
#define GAL_COMMON_LOGGING_H_

#include <iostream>
#include <mutex>
#include <sstream>
#include <string>

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
