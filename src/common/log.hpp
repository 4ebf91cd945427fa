// Warnings and errors to stderr.  Both levels always print: there is no
// threshold, and diagnostics below them are obs counters and spans.
//
// Each message is written to stderr as one write under a process-wide mutex,
// so concurrent threads cannot interleave within a line.
#pragma once

#include <sstream>
#include <string>

namespace chronosync {

enum class LogLevel { Warn, Error };

/// Writes one "[LEVEL] msg" line to stderr in one atomic write.
void log_message(LogLevel level, const std::string& msg);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, os_.str()); }
  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace chronosync

#define CS_LOG_WARN ::chronosync::detail::LogLine(::chronosync::LogLevel::Warn)
#define CS_LOG_ERROR ::chronosync::detail::LogLine(::chronosync::LogLevel::Error)
