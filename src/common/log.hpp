// Leveled logging to stderr.  Default level is Warn so library output never
// pollutes the bench tables; binaries raise it with --verbose.
//
// A suppressed CS_LOG_* statement costs one relaxed atomic load and a
// branch: the stream and its operands are only materialized when the level
// passes the threshold.  Each emitted message is written to stderr as one
// write under a process-wide mutex, so concurrent threads cannot interleave
// within a line.
#pragma once

#include <atomic>
#include <memory>
#include <sstream>
#include <string>

namespace chronosync {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Global threshold; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

namespace detail {
extern std::atomic<int> g_log_level;
}  // namespace detail

inline bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >= detail::g_log_level.load(std::memory_order_relaxed);
}

/// Emits unconditionally-formatted text (the level check already happened at
/// the caller, or the caller wants it regardless); one atomic line write.
void log_message(LogLevel level, const std::string& msg);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {
    if (log_enabled(level)) os_ = std::make_unique<std::ostringstream>();
  }
  ~LogLine() {
    if (os_) log_message(level_, os_->str());
  }
  template <typename T>
  LogLine& operator<<(const T& v) {
    if (os_) *os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  // Not std::optional: GCC 12 warns -Wmaybe-uninitialized at each inlined site.
  std::unique_ptr<std::ostringstream> os_;
};
}  // namespace detail

}  // namespace chronosync

#define CS_LOG_DEBUG ::chronosync::detail::LogLine(::chronosync::LogLevel::Debug)
#define CS_LOG_INFO ::chronosync::detail::LogLine(::chronosync::LogLevel::Info)
#define CS_LOG_WARN ::chronosync::detail::LogLine(::chronosync::LogLevel::Warn)
#define CS_LOG_ERROR ::chronosync::detail::LogLine(::chronosync::LogLevel::Error)
