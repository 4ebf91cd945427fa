// Out-of-core windowed streaming CLC.
//
// The in-memory CLC (clc.hpp) materializes the trace, the message index, the
// CSR replay schedule, and two Time arrays — ~150+ bytes per event.  The
// long-run regime the paper cares about (1800–3600 s, 10^7–10^9 events) does
// not fit that budget, so this variant consumes a v2 trace file chunk by
// chunk, in the frontier order of stream_io.hpp's FrontierReader (the read
// order it shares with scan_clock_condition_file: next, the rank whose
// largest local timestamp read so far is lowest), and keeps only a sliding
// window resident:
//
//   * one read-ahead queue per rank of events read but not processed, each
//     a 24-byte EdgeRecord (stream_io.hpp: local_ts, type, and the id, kind
//     and root that pair it), decoded straight into the queue,
//   * the forward-pass scalar state per rank,
//   * the outstanding message/collective pairing backlog (half-open edges),
//     in edge_rules::IdTable,
//   * a bounded retention window per rank of processed-but-unemitted events
//     over which backward amortization is re-swept before emission.
//
// The read-ahead and retention windows are rings of recycled capacity, so
// the steady state allocates nothing.  Corrected timestamps stream to an
// on-disk side file as they become final: one 8-byte Time per event at its
// rank-major slot, nothing else.  One last pass merges them into a sealed v2
// output: it re-reads each input chunk (CRC and head checked against the
// index again), reads its slice of the side file as its timestamps,
// rewrites only the local_ts deltas, copies every other field's bytes, and
// appends the chunk whole, so the output keeps the input's chunk layout.
//
// Memory model: what stays resident is the window (read-ahead at 24 bytes
// per event plus retention at 48), the collective backlog, every processed
// send still waiting for its receive (one 24-byte message-table slot each),
// and the seen-set of message endpoints (2 bits per msg_id, at most one byte
// per event; see the equivalence contract).  A send leaves the message table when its receive takes the
// edge.  A send whose receive never comes — only a trace cut mid-run
// produces one — stays until the run ends, one table slot each; its backward
// hold is released once the read frontier passes the horizon, so it delays
// no emission.  Peak RSS is therefore bounded by window size plus edge
// backlog plus orphan sends, and never by the number of matched messages.
// The read-ahead is usually most of the window: a rank's events wait there
// until the sends and collective begins they depend on are processed.  Its
// floor is one whole chunk per rank, the CRC unit the reader must verify
// before it hands out any event: ranks × events_per_chunk × 24 bytes, which
// at the writer's 4096-event default is a quarter of what files cut at 16384
// events by older writers still cost.  The gauges
// clc.stream.peak_ahead_events and clc.stream.peak_pending_events give each
// window's high-water mark.  The counters clc.stream.pending_held_events and
// clc.stream.pending_window_events say what keeps the retention window: each
// sweep adds the entries it leaves pending to the first one's reason, a hold
// (an unmatched send inside the horizon, or an open collective) or the
// backward window.  clc.stream.correct.alloc_bytes and
// clc.stream.merge.alloc_bytes give the heap bytes each phase requests.  The
// correct pass's state is freed before the merge, whose buffers (one chunk
// each) therefore do not add to the window's peak.
//
// -- Equivalence contract -----------------------------------------------------
//
// The forward pass is replayed in a dependency-respecting order, and the
// forward correction of an event depends only on its same-rank predecessor
// and a max over its incoming edges, so forward values are bit-identical to
// controlled_logical_clock() on the materialized trace whenever both pair
// the same edges.  Three conditions can break that, and each is a documented
// divergence source (never silent — counted in StreamClcStats):
//
//   * `horizon` (seconds of local time): an edge whose endpoints record
//     timestamps further apart than the horizon may be dropped
//     (`horizon_dropped`).  Pick horizon >= the largest send->receive
//     timestamp skew and collective instance spread; the defaults cover any
//     realistic drift magnitude.
//   * `backward_window` (seconds): backward-amortization ramps are clamped
//     to min(jump / backward_slope, backward_window).  Jumps whose natural
//     ramp exceeds the window are counted in `ramp_clamped`.
//   * Repeated message ids: the in-memory join (edge_rules::MessageJoin)
//     pairs in rank-major order, this one in frontier order, and the two
//     agree only while no (msg_id, side) pair occurs twice (a malformed
//     trace).  edge_rules::SeenEndpoints, the file scan's seen-set, checks
//     that; each repeated endpoint counts in `repeated_ids`, and so does the
//     set outgrowing its budget (ids too sparse for its pages), after which
//     it is dropped and nothing is proven.
// A cyclic or dangling constraint graph forces progress (`forced`).
//
// With ramp_clamped == horizon_dropped == forced == repeated_ids == 0 the
// emitted trace is bit-identical — timestamps and jump statistics — to the
// in-memory
//   controlled_logical_clock(trace, schedule, TimestampArray::from_local(t)).
// src/verify/differential.hpp::cross_check_windowed_clc asserts exactly this.
// Both sum total_jump through clc_kernel::JumpTotal, so its bits agree too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "sync/clc.hpp"

namespace chronosync {

struct StreamClcOptions {
  /// Kernel parameters shared with the in-memory CLC (decay, slope, ...).
  ClcOptions clc;
  /// Edge-resolution horizon in seconds of local time: how far apart the two
  /// endpoint timestamps of one message/collective may be before the edge is
  /// abandoned (and counted) to keep the window finite.
  Duration horizon = 10.0;
  /// Backward-amortization ramp clamp in seconds (see file comment).
  Duration backward_window = 1.0;
  /// Retention growth between backward re-sweeps; smaller emits earlier,
  /// larger sweeps less often.  Purely a performance knob — emitted values
  /// are independent of batching.
  std::size_t emit_batch = 4096;
};

struct StreamClcStats {
  std::uint64_t events = 0;          ///< events processed (== trace total)
  std::uint64_t p2p_edges = 0;       ///< matched send->receive constraints
  std::uint64_t logical_edges = 0;   ///< collective-derived constraints
  // Mirrors of ClcResult's jump statistics (bit-identical under the contract).
  std::size_t violations_repaired = 0;
  Duration max_jump = 0.0;
  Duration total_jump = 0.0;
  // Divergence counters: all zero <=> output bit-identical to in-memory CLC.
  std::uint64_t ramp_clamped = 0;    ///< jumps whose ramp hit backward_window
  std::uint64_t horizon_dropped = 0; ///< edges abandoned past the horizon
  std::uint64_t forced = 0;          ///< events force-processed (cyclic input)
  /// Message endpoints whose (msg_id, side) pair was read before, plus one if
  /// the seen-set outgrew its budget (see the equivalence contract).
  std::uint64_t repeated_ids = 0;
  // Resource telemetry.
  /// Always 0: message entries stay in memory (see the memory model above).
  /// Kept because perfbench still reports it as sync.stream_spilled_msgs;
  /// it goes when that record does.
  std::uint64_t spilled_msgs = 0;
  std::size_t peak_resident_events = 0; ///< read-ahead + retention high-water
  std::size_t peak_outstanding_msgs = 0;///< in-memory message-table high-water
};

/// Corrects `in_path` (a sealed v2 trace) into `out_path` (v2, same events
/// and chunk layout with local_ts replaced by the corrected timestamps; every
/// other field preserved byte for byte).  The output is written to
/// `out_path` + ".tmp" and atomically renamed on success; a thrown error
/// removes the temporary and the timestamp side file, so it never leaves a silently
/// truncated trace at `out_path` nor litter beside it.  Throws TraceIoError
/// on any input defect — including a missing footer — before the output file
/// is created.
StreamClcStats clc_stream_file(const std::string& in_path, const std::string& out_path,
                               const StreamClcOptions& options = {});

}  // namespace chronosync
