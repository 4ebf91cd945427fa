// Metrics export: serializes one registry snapshot as a standalone JSON
// document (schema "chronosync-metrics-v1", validated by `chronoscope
// --metrics` and diffable by `chronoscope --diff`), plus an optional
// background sampler that records process RSS/CPU gauges at a fixed cadence.
//
// Values are printed with enough precision that parse(write(snapshot))
// reproduces every value bit-for-bit, which the exporter round-trip test
// pins.
#pragma once

#include <chrono>
#include <condition_variable>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "obs/registry.hpp"

namespace chronosync::obs {

/// Schema marker carried by every JSON metrics snapshot.
inline constexpr const char* kMetricsSchema = "chronosync-metrics-v1";

/// One flat metrics document:
///   {"schema":"chronosync-metrics-v1","suite":"...","obs_level":"...",
///    "metrics":{"<name>":<number>,...}}
/// `metrics` carries exactly what registry metrics_snapshot() reports
/// (quantile sub-keys included), name-sorted.
void write_metrics_json(std::ostream& out, const std::string& suite, Level level);
/// write_metrics_json into `path` (truncated), whatever its extension.
/// Throws std::invalid_argument when the file cannot be opened or written.
void write_metrics_json_file(const std::string& path, const std::string& suite, Level level);

/// Parses a JSON snapshot written by write_metrics_json back into its
/// name-sorted (name, value) pairs.  Throws std::invalid_argument on any
/// schema violation (wrong/missing schema marker, non-object metrics,
/// non-numeric values) — the validation `chronoscope --metrics` relies on.
std::vector<std::pair<std::string, double>> read_metrics_json(const std::string& text);

/// Background resource sampler: while running, sets the gauges
/// `process.rss_bytes`, `process.peak_rss_bytes`, `process.cpu_user_s`,
/// `process.cpu_sys_s` and bumps the counter `obs.sampler_ticks` once per
/// period (gauges no-op below Level::Metrics like every registry update).
/// stop() joins the thread; the destructor stops implicitly.
class ResourceSampler {
 public:
  explicit ResourceSampler(std::chrono::milliseconds period);
  ~ResourceSampler();
  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

  void stop();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread worker_;
};

}  // namespace chronosync::obs
