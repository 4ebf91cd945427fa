// Out-of-core clock-condition analysis over trace files.
//
// The in-memory pipeline (read_trace_v2 -> match_messages ->
// derive_logical_messages -> ReplaySchedule -> check_clock_condition)
// materializes every event, the constraint edges, and a timestamp array.  The streaming scan consumes a v2
// trace chunk-by-chunk through TraceReader and keeps only the per-message
// pairing state (message endpoints by msg_id, collective instances by
// coll_id), so resident memory is bounded by the number of *messages*, not
// events — on region-dominated traces orders of magnitude smaller.
//
// The report is identical (same counts, same worst-case slack) to
//   check_clock_condition(trace, TimestampArray::from_local(trace))
// on the materialized trace; a test asserts the equivalence.
#pragma once

#include <cstddef>
#include <iosfwd>
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

/// Scans a trace of any supported format from `in`, sniffing at most the
/// first 8 bytes and never seeking, so pipe-fed streams work.  v2 streams
/// with bounded memory.  Any other "CSTR" header raises TraceIoError
/// (BadVersion, or Truncated below 8 bytes).  Everything else replays the
/// sniffed prefix into the text reader, which reports its own errors, and is
/// checked in memory by check_clock_condition.
ClockConditionReport scan_clock_condition(std::istream& in, ScanStats* stats = nullptr);

/// Opens `path` and scans it.  v2 files stream with bounded memory; text
/// files fall back to the in-memory check transparently.
ClockConditionReport scan_clock_condition_file(const std::string& path,
                                               ScanStats* stats = nullptr);

}  // namespace chronosync
