#include "obs/session.hpp"

#include <utility>

#include "benchkit/metrics.hpp"
#include "common/expect.hpp"
#include "common/log.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"

namespace chronosync::obs {

namespace {

Level resolve_level(const Cli& cli, const std::string& trace_out,
                    const std::string& metrics_out) {
  const std::string text = cli.get("obs-level", "");
  if (!text.empty()) {
    Level parsed = Level::Off;
    CS_REQUIRE(parse_level(text, parsed),
               "invalid observability level '" + text + "' (expected off, metrics, or trace)");
    return parsed;
  }
  // No explicit level: the requested outputs imply the level they need.
  if (!trace_out.empty()) return Level::Trace;
  if (!metrics_out.empty()) return Level::Metrics;
  return Level::Off;
}

}  // namespace

ObsSession::ObsSession(const Cli& cli, std::string suite)
    : suite_(std::move(suite)),
      trace_out_(cli.get("trace-out", "")),
      metrics_out_(cli.get("metrics-out", "")) {
  level_ = resolve_level(cli, trace_out_, metrics_out_);
  set_level(level_);
}

std::pair<std::string, std::string> ObsSession::claim_outputs() {
  return {std::exchange(trace_out_, std::string()), std::exchange(metrics_out_, std::string())};
}

void ObsSession::write_artifacts(const std::string& trace_path,
                                 const std::string& metrics_path) const {
  if (!trace_path.empty()) {
    write_chrome_trace_file(trace_path);
  }
  if (!metrics_path.empty()) {
    // Gauges are last-writer-wins and peak RSS is a high-water mark, so one
    // sample taken just before the write is exact.
    const benchkit::ResourceUsage u = benchkit::sample_resource_usage();
    gauge("process.rss_bytes").set(static_cast<double>(u.current_rss_bytes));
    gauge("process.peak_rss_bytes").set(static_cast<double>(u.peak_rss_bytes));
    gauge("process.cpu_user_s").set(static_cast<double>(u.cpu_user_ns) * 1e-9);
    gauge("process.cpu_sys_s").set(static_cast<double>(u.cpu_sys_ns) * 1e-9);
    write_metrics_json_file(metrics_path, suite_, level_);
  }
}

void ObsSession::finish() {
  if (finished_) return;
  finished_ = true;
  write_artifacts(trace_out_, metrics_out_);
}

ObsSession::~ObsSession() {
  try {
    finish();
  } catch (const std::exception& e) {
    CS_LOG_ERROR << "obs: flush failed: " << e.what();
  }
}

}  // namespace chronosync::obs
