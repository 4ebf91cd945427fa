// The Controlled Logical Clock (CLC) algorithm.
//
// Rabenseifner's CLC (refs. [28]-[31] of the paper) retroactively restores
// the clock condition in an event trace while approximately preserving the
// lengths of local intervals:
//
//   * If a receive event carries a timestamp earlier than its matching send
//     plus the minimum message latency, the receive is moved forward to
//     send + l_min (a *jump*).
//   * Forward amortization: the events following a jump keep their local
//     distances, with the accumulated correction decaying at a controlled
//     rate so the process gradually returns to its original clock.
//   * Backward amortization: the events immediately preceding a jump are
//     pulled forward along a linear ramp so the jump does not masquerade as
//     a sudden idle phase — bounded so no send may overtake its receive.
//
// The collective extension (ref. [30]) enters through the logical messages
// derived from collective instances (trace/logical_messages.hpp).  The
// arithmetic of every step lives in clc_kernel.hpp; controlled_logical_clock
// is its one in-memory driver.
//
// The algorithm consumes *any* initial timestamp array (raw local clocks or
// a pre-synchronization such as linear offset interpolation — the paper
// recommends the latter, since CLC accuracy depends on input accuracy).
#pragma once

#include <cstddef>

#include "sync/replay.hpp"
#include "trace/trace.hpp"

namespace chronosync {

struct ClcOptions {
  /// Rate at which the forward correction decays back toward the original
  /// clock, as a fraction of elapsed local time (0 = keep full correction,
  /// i.e. a plain offset shift of the rest of the trace).
  double forward_decay = 0.05;
  /// Enables the pre-jump ramp.
  bool backward_amortization = true;
  /// Maximum fractional stretch of pre-jump intervals: a jump of size d is
  /// smoothed over a window of d / backward_slope.
  double backward_slope = 0.05;
};

struct ClcResult {
  TimestampArray corrected;
  std::size_t violations_repaired = 0;  ///< receive events that had to jump
  Duration max_jump = 0.0;              ///< largest single correction (s)
  Duration total_jump = 0.0;            ///< sum of all jump sizes (s)
};

/// Runs the CLC over `input` timestamps: one single-threaded pass in
/// dependency order.  Throws std::invalid_argument naming the first blocked
/// event when the constraint graph has a cycle (a malformed trace).
ClcResult controlled_logical_clock(const Trace& trace, const ReplaySchedule& schedule,
                                   const TimestampArray& input, const ClcOptions& options = {});

}  // namespace chronosync
