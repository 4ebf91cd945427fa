// Out-of-core clock-condition analysis over trace files.
//
// The in-memory pipeline (read_trace_v2 -> match_messages ->
// derive_logical_messages -> ReplaySchedule -> check_clock_condition)
// materializes every event, the constraint edges, and a timestamp array.
// The streaming scan consumes a v2 trace chunk-by-chunk through TraceReader
// and keeps only the per-message pairing state (message endpoints by msg_id,
// collective instances by coll_id), so resident memory is bounded by the
// number of *messages*, not events — on region-dominated traces orders of
// magnitude smaller.  v2 is the only container: both entry points below read
// through TraceReader's one constructor, so any other input (a foreign file,
// the retired CSTXT text format, a v1 header) raises a typed TraceIoError and
// is never loaded into memory.
//
// The report is identical (same counts, same worst-case slack) to
//   check_clock_condition(trace, TimestampArray::from_local(trace))
// on the materialized trace; a test asserts the equivalence.
#pragma once

#include <cstddef>
#include <string>

#include "analysis/clock_condition.hpp"
#include "trace/stream_io.hpp"

namespace chronosync {

/// Resource counters of a streaming scan: high-water marks of the pairing
/// state.  `peak_outstanding_messages` tracks the *backlog* of half-matched
/// messages (a send awaiting its receive, or vice versa), not the total
/// message count — completed pairs are checked and erased eagerly, so a long
/// well-paired trace scans in O(backlog) memory.  Collective instances cannot
/// be released before end-of-scan (a rank may still join an instance in a
/// later chunk), so their high-water equals the instance count.
struct ScanStats {
  std::size_t peak_outstanding_messages = 0;
  std::size_t peak_outstanding_collectives = 0;
};

/// Scans the remaining events of `reader` (local timestamps, Eq. 1 over p2p
/// and logical messages) without materializing a Trace.
ClockConditionReport scan_clock_condition(TraceReader& reader, ScanStats* stats = nullptr);

/// Opens the v2 file at `path` through a TraceReader and scans it with
/// bounded memory.  Anything that is not a v2 trace raises TraceIoError
/// (Io when the file cannot be opened; Truncated, BadMagic or BadVersion
/// from the header check).
ClockConditionReport scan_clock_condition_file(const std::string& path,
                                               ScanStats* stats = nullptr);

}  // namespace chronosync
