// Structured, schema-versioned benchmark records and the JSON-lines reporter
// that appends them to a trajectory file (BENCH_*.json).  One record per
// measurement; records from different binaries/runs concatenate freely.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "benchkit/json.hpp"

namespace chronosync::benchkit {

/// Bump when the record layout changes incompatibly; consumers must check it.
/// History:
///   1 — initial layout
///   2 — adds cpu_user_ns / cpu_sys_ns (process CPU time over the timed
///       repetitions, from getrusage); v1 records still parse, with both
///       fields defaulting to 0
///   3 — adds wall_ns_ci_lo / wall_ns_ci_hi / boot_resamples /
///       boot_confidence (bootstrap median confidence interval over the
///       timed repetitions); older records parse with all four at 0
///
/// A record's emitted schema_version reflects its content, not this
/// constant: v3 keys only appear when a bootstrap interval was computed
/// (boot_resamples > 0), v2 when CPU time was sampled, and a record carrying
/// neither is written as v1 without the newer keys.  Earlier revisions
/// stamped kSchemaVersion unconditionally, which mislabeled records that had
/// no v2 content.
inline constexpr int kSchemaVersion = 3;

using ConfigList = std::vector<std::pair<std::string, std::string>>;
using MetricList = std::vector<std::pair<std::string, double>>;

struct BenchRecord {
  std::string suite;   // binary-level grouping, e.g. "perf_clc"
  std::string name;    // measurement within the suite, e.g. "clc_sequential"
  std::string kind;    // "timing" (wall_ns_* populated) or "metric"
  ConfigList config;   // knobs that identify the configuration, as strings
  std::int64_t iters = 0;
  double wall_ns_p50 = 0.0;
  double wall_ns_p90 = 0.0;
  double wall_ns_min = 0.0;
  double wall_ns_ci_lo = 0.0;  // bootstrap CI for the median (schema >= 3);
  double wall_ns_ci_hi = 0.0;  //   both 0 when boot_resamples == 0
  std::int64_t boot_resamples = 0;  // 0 means no interval was computed
  double boot_confidence = 0.0;     // e.g. 0.95; 0 when no interval
  double throughput = 0.0;  // items per second at the p50 time; 0 if n/a
  MetricList metrics;       // named scalar results (figure/table numbers)
  std::int64_t cpu_user_ns = 0;  // user CPU over the timed reps (schema >= 2)
  std::int64_t cpu_sys_ns = 0;   // system CPU over the timed reps (schema >= 2)
  std::int64_t peak_rss_bytes = 0;
  std::int64_t alloc_bytes_per_iter = 0;
  std::string git_sha;
  std::int64_t timestamp = 0;  // unix seconds
};

JsonValue to_json(const BenchRecord& record);

/// Parses one JSON-lines record back (for chronoscope --bench-gate); throws on
/// schema_version mismatch, missing keys or wall_ns_ci_lo > wall_ns_ci_hi.
BenchRecord record_from_json(const JsonValue& value);

/// Appends records to a JSON-lines file, creating parent directories.  Each
/// append opens/closes the file so concurrent bench binaries interleave at
/// line granularity and a crash keeps the prefix.
class JsonReporter {
 public:
  explicit JsonReporter(std::string path) : path_(std::move(path)) {}

  void append(const BenchRecord& record) const;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace chronosync::benchkit
