// CLI glue shared by the bench and tool binaries: one ObsSession
// per process parses the observability options, sets the global level, and
// writes the requested outputs at the end of the run.
//
// Options (all optional):
//   --obs-level {off,metrics,trace}   explicit level; unknown values throw
//   --trace-out <file>                Chrome trace JSON; implies `trace`
//                                     when --obs-level is absent
//   --metrics-out <file>              chronosync-metrics-v1 JSON snapshot
//                                     (whatever the extension); implies at
//                                     least `metrics`.  Every snapshot carries
//                                     the process.* RSS/CPU gauges, sampled
//                                     once just before it is written.
#pragma once

#include <string>
#include <utility>

#include "common/cli.hpp"
#include "obs/obs.hpp"

namespace chronosync::obs {

class ObsSession {
 public:
  /// Parses the options above and calls obs::set_level().  `suite` names the
  /// metrics records written by finish() (conventionally the binary name).
  ObsSession(const Cli& cli, std::string suite);

  /// Writes --trace-out and --metrics-out if still owned (see
  /// claim_outputs); idempotent, so an explicit call (preferred: it
  /// propagates I/O errors) makes the destructor a no-op.
  void finish();

  /// finish() swallowing exceptions (logged), for abnormal exits.
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Transfers ownership of the requested output paths to the caller and
  /// clears them here, so finish() writes nothing.  Battery mode uses this to
  /// emit one artifact pair per scenario (derived from the claimed paths)
  /// instead of a single cumulative artifact at exit.
  std::pair<std::string, std::string> claim_outputs();

  /// Writes the trace and/or metrics artifacts for the current registry/ring
  /// state to the given paths (either may be empty to skip).  A metrics
  /// document first refreshes the process.* gauges.  `suite` tags the
  /// metrics document; used by battery mode between scenarios.
  void write_artifacts(const std::string& trace_path, const std::string& metrics_path) const;

  Level level() const { return level_; }

 private:
  std::string suite_;
  std::string trace_out_;
  std::string metrics_out_;
  Level level_ = Level::Off;
  bool finished_ = false;
};

}  // namespace chronosync::obs
