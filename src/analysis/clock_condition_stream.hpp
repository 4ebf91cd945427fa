// Out-of-core clock-condition analysis over trace files.
//
// The in-memory pipeline (read_trace_v2 -> match_messages ->
// derive_logical_messages -> ReplaySchedule -> check_clock_condition)
// materializes every event, the constraint edges, and a timestamp array.
// The streaming scan consumes a v2 trace chunk by chunk and keeps only the
// pairing state: the half-matched messages by msg_id and the collective
// instances by coll_id.  v2 is the only container: both entry points read
// through TraceReader's one constructor, so any other input (a foreign file,
// the retired CSTXT text format, a v1 header) raises a typed TraceIoError and
// is never loaded into memory.
//
// Two chunk orders feed one scan body:
//
//   * scan_clock_condition(TraceReader&) reads rank-major, in file order.  It
//     serves pipes and in-memory streams, which cannot seek.  A message whose
//     receiver sits on a later rank stays half-matched until that rank is
//     read, so its backlog grows with the messages that cross ranks.
//   * scan_clock_condition_file indexes the file first (index_trace_v2: every
//     check, the whole-file CRC included, before any event is paired), then
//     reads it in frontier order through FrontierReader, the read order of
//     the windowed CLC.  A message is paired when the frontier passes its
//     later endpoint, so the backlog is the send->receive distance in local
//     time, not the rank distance.
//
// The report is identical (same counts, same worst-case slack) to
//   check_clock_condition(trace, TimestampArray::from_local(trace))
// on the materialized trace, in both orders; tests hold both to
// verify::clock_condition_oracle.  Why order does not matter:
//
//   * Collectives: the edge rules (edge_rules.hpp) read the order of one
//     rank's events only, for first-match roots, and a rank's chunks always
//     come in file order; kind/root come from the participant last in
//     rank-major order, as a rank-major read leaves them.
//   * Messages: ClockConditionReport::add_edge does not depend on order, so
//     the frontier join pairs exactly as the rank-major join whenever no
//     (msg_id, side) pair occurs twice.  The file scan proves that with an
//     exact seen-set, 2 bits per id in 8 KiB pages.  When an id repeats a
//     side (a malformed trace), or the pages outgrow one byte per indexed
//     event (ids too sparse for pages; at least one page is always allowed),
//     it restarts from byte 0 in rank-major order
//     (`analysis.scan.rank_major_restarts`).
//
// Memory model: the pairing backlog, the collective instances (kept to the
// end: a rank may still join an instance in a later chunk), one encoded chunk
// with at most 512 of its events decoded — as EdgeRecords (stream_io.hpp),
// the fields an edge reads — and, in the file scan, the chunk index and the
// seen-set.  Both orders feed the scan the same records.  Spans
// `analysis.scan.index` and `analysis.scan.read` time the file scan's two
// passes; `analysis.scan.chunks_read` counts the chunks either order decoded.
#pragma once

#include <cstddef>
#include <string>

#include "analysis/clock_condition.hpp"
#include "trace/stream_io.hpp"

namespace chronosync {

/// Resource counters of a streaming scan: high-water marks of the pairing
/// state.  `peak_outstanding_messages` tracks the *backlog* of half-matched
/// messages (a send awaiting its receive, or vice versa), not the total
/// message count: completed pairs are checked and erased eagerly, so it
/// depends on the chunk order (see the file comment).  Collective instances
/// are never released before the end of the scan, so their high-water equals
/// the instance count.  After a rank-major restart, the counters are those of
/// the rank-major pass.
struct ScanStats {
  std::size_t peak_outstanding_messages = 0;
  std::size_t peak_outstanding_collectives = 0;
};

/// Scans the remaining events of `reader` in rank-major order (local
/// timestamps, Eq. 1 over p2p and logical messages) without materializing a
/// Trace.
ClockConditionReport scan_clock_condition(TraceReader& reader, ScanStats* stats = nullptr);

/// Scans the v2 file at `path` in frontier order (rank-major when the file
/// cannot seek, or after a restart).  Anything that is not a v2 trace raises
/// TraceIoError (Io when the file cannot be opened; Truncated, BadMagic or
/// BadVersion from the header check).
ClockConditionReport scan_clock_condition_file(const std::string& path,
                                               ScanStats* stats = nullptr);

}  // namespace chronosync
