#include "common/log.hpp"

#include <cstdio>
#include <mutex>

namespace chronosync {

void log_message(LogLevel level, const std::string& msg) {
  // One formatted line, one stream write, under one mutex: concurrent
  // threads' messages never interleave mid-line.
  static std::mutex mu;
  std::string line;
  line.reserve(msg.size() + 16);
  line += level == LogLevel::Warn ? "[WARN] " : "[ERROR] ";
  line += msg;
  line += '\n';
  const std::lock_guard<std::mutex> lock(mu);
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace chronosync
