// The typed-error probe of the trace-I/O tests: runs a callable and reports
// which TraceIoError it threw, if any.  Any other exception propagates, so a
// test fails on it.
#pragma once

#include <optional>
#include <ostream>

#include "trace/trace_io_error.hpp"

namespace chronosync {

/// Lets gtest name a TraceIoErrorKind in failure messages instead of dumping
/// its bytes.
inline void PrintTo(TraceIoErrorKind kind, std::ostream* os) { *os << to_string(kind); }

}  // namespace chronosync

namespace chronosync::testutil {

/// The kind of TraceIoError `fn` throws, or nullopt when it returns.
template <typename Fn>
std::optional<TraceIoErrorKind> error_of(Fn&& fn) {
  try {
    fn();
  } catch (const TraceIoError& e) {
    return e.kind();
  }
  return std::nullopt;
}

}  // namespace chronosync::testutil
