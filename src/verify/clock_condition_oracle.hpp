// The clock-condition scanners' oracle.
//
// check_clock_condition walks the CSR edges of a ReplaySchedule and the
// streaming scan pairs endpoints as a v2 file goes by; both tally through
// ClockConditionReport::add_edge/add_event.  This reference instead walks
// materialised message lists (trace.match_messages(), the logical messages
// of derive_logical_messages or any subset of them) with its own Eq. 1
// arithmetic and its own event census, so a bug in the shared tally or in
// the schedule's edge storage shows up as a field mismatch.  The
// differential suite and the analysis tests hold both scanners to it.
#pragma once

#include <vector>

#include "analysis/clock_condition.hpp"
#include "trace/logical_messages.hpp"
#include "trace/trace.hpp"

namespace chronosync::verify {

/// Checks `timestamps` against exactly the given p2p and logical messages.
/// Equals check_clock_condition over a ReplaySchedule built from the same
/// lists, field for field.
ClockConditionReport clock_condition_oracle(const Trace& trace,
                                            const TimestampArray& timestamps,
                                            const std::vector<MessageRecord>& messages,
                                            const std::vector<LogicalMessage>& logical);

}  // namespace chronosync::verify
