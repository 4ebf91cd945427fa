// Metrics export: serializes one registry snapshot as a standalone JSON
// document (schema "chronosync-metrics-v1", validated by `chronoscope
// --metrics` and diffable by `chronoscope --diff`).
//
// Values are printed with enough precision that parse(write(snapshot))
// reproduces every value bit-for-bit, which the exporter round-trip test
// pins.
#pragma once

#include <iosfwd>
#include <string>
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

}  // namespace chronosync::obs
