// The CLC's replay-order oracle.
//
// controlled_logical_clock visits events rank by rank, parking a blocked rank
// on the rank that owns its missing send and resuming its scan_incoming
// cursor, inside a collective hub too, when it wakes.  This reference visits
// the same events in replay order instead (per-event pending counters over
// the outgoing edges), reads each event's incoming edges in one
// for_each_incoming call, and feeds them through the same kernel
// (sync/clc_kernel.hpp).  A CLC event's value depends only on its predecessor
// and its constraining sends, so any dependency-respecting order must produce
// the same bits; the differential suite and the CLC tests hold the driver to
// that.  Over a verify::CsrSchedule no hub exists at all, so the driver's
// resumed hub scans are checked against edges never stored as one.
#pragma once

#include "sync/clc.hpp"
#include "sync/replay.hpp"
#include "trace/trace.hpp"
#include "verify/csr_schedule.hpp"

namespace chronosync::verify {

/// The CLC with its forward pass in replay order.  Same contract as
/// controlled_logical_clock, including the typed error on a cyclic
/// constraint graph.
ClcResult replay_order_clc(const Trace& trace, const ReplaySchedule& schedule,
                           const TimestampArray& input, const ClcOptions& options = {});
ClcResult replay_order_clc(const Trace& trace, const CsrSchedule& schedule,
                           const TimestampArray& input, const ClcOptions& options = {});

}  // namespace chronosync::verify
