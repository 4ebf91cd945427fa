// In-process tracing: runtime-switchable observability levels, RAII spans
// recorded into per-thread lock-free ring buffers, and counter samples on the
// same timeline.  The recorded data flushes to Chrome trace-event JSON
// (chrome://tracing / Perfetto) via write_chrome_trace().
//
// Design constraints, in order:
//   1. Runtime-off must cost (almost) nothing: every entry point is gated on
//      one relaxed atomic load; CS_SPAN with tracing off is a load + branch.
//   2. Recording must never block or allocate on the hot path: each thread
//      owns a fixed-capacity ring of POD records; a full ring drops new
//      records and counts the drops (`obs.dropped_spans`) — output is never
//      corrupted, only truncated.
//   3. Flushing happens at quiesce points (after joins / at process end).
//      Record counts are published with release stores so a concurrent flush
//      reads a consistent prefix, but the intended protocol is: stop the
//      workers, then write the trace.
//
// Span and counter names must be string literals (or otherwise outlive the
// flush): the ring stores the pointer, not a copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace chronosync::obs {

/// Observability level, ordered: Off < Metrics < Trace.
///   Off     - spans and counters compile in but do nothing.
///   Metrics - the metrics registry accumulates; no timeline.
///   Trace   - metrics plus span/counter-sample recording for trace export.
enum class Level : int { Off = 0, Metrics = 1, Trace = 2 };

void set_level(Level level);
Level level();

const char* to_string(Level level);
/// Parses "off" / "metrics" / "trace"; returns false on anything else.
bool parse_level(const std::string& text, Level& out);

namespace detail {
extern std::atomic<int> g_level;
void record_span(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns);
void record_counter(const char* name, std::uint64_t ts_ns, double value);
}  // namespace detail

inline bool metrics_enabled() {
  return detail::g_level.load(std::memory_order_relaxed) >= static_cast<int>(Level::Metrics);
}
inline bool trace_enabled() {
  return detail::g_level.load(std::memory_order_relaxed) >= static_cast<int>(Level::Trace);
}

/// Monotonic nanoseconds since process start (steady clock).
std::uint64_t now_ns();

/// Ring capacity (records per thread) for threads that register *after* the
/// call; threads that already recorded keep their ring.  Minimum 8.
void set_ring_capacity(std::size_t records);

/// Names the calling thread's track in the exported trace ("thread-N" when
/// never set).  No-op with observability off, so worker threads of an
/// uninstrumented run never register (or allocate) a ring.
void set_thread_name(const std::string& name);

/// Records a counter sample at the current timestamp on the calling thread's
/// counter track (Chrome 'C' event).  No-op unless trace_enabled().
void counter_sample(const char* name, double value);

/// RAII span: records [construction, destruction) on the calling thread when
/// tracing is enabled at construction time.
class Span {
 public:
  explicit Span(const char* name) {
    if (trace_enabled()) {
      name_ = name;
      t0_ = now_ns();
    }
  }
  ~Span() {
    if (name_ != nullptr) detail::record_span(name_, t0_, now_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t t0_ = 0;
};

/// Aggregate statistics of the recorded trace data.
struct TraceStats {
  std::uint64_t spans = 0;
  std::uint64_t counter_samples = 0;
  std::uint64_t dropped = 0;  ///< records rejected by full rings
  int threads = 0;            ///< threads that registered a ring
};

TraceStats trace_stats();

/// Writes everything recorded so far as one Chrome trace-event JSON document:
/// process/thread metadata, one B/E pair per span (properly nested per
/// thread), 'C' events per counter sample, and a final `obs.dropped_spans`
/// counter.  Call at a quiesce point (instrumented threads joined).
void write_chrome_trace(std::ostream& out);
void write_chrome_trace_file(const std::string& path);

/// Clears all recorded spans/samples, drop counts, and registry metric
/// values (thread registrations survive).  Intended for tests; call only
/// while no instrumented thread is running.
void reset();

}  // namespace chronosync::obs

#define CS_OBS_CONCAT2(a, b) a##b
#define CS_OBS_CONCAT(a, b) CS_OBS_CONCAT2(a, b)

/// RAII scope span: CS_SPAN("clc.forward_pass");
#define CS_SPAN(name) ::chronosync::obs::Span CS_OBS_CONCAT(cs_obs_span_, __LINE__)(name)
