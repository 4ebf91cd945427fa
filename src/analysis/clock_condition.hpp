// Clock-condition analysis (Eq. 1 and Fig. 7 of the paper).
//
// For every matched point-to-point message and every logical message derived
// from collectives, checks
//     t_recv >= t_send + l_min          (clock condition)
// and the stricter observable the paper plots in Fig. 7,
//     t_recv <  t_send                  (reversed message).
//
// In memory the check is one pass over a ReplaySchedule's constraint edges
// (for_each_timed_edge, which the zero-slack audit shares); trace files are
// scanned out of core by
// analysis/clock_condition_stream.hpp.  Both tally through the same
// ClockConditionReport members, so the per-edge rule is written once.
#pragma once

#include <algorithm>
#include <cstddef>

#include "sync/replay.hpp"
#include "trace/logical_messages.hpp"
#include "trace/trace.hpp"

namespace chronosync {

struct ClockConditionReport {
  // -- point-to-point ---------------------------------------------------------
  std::size_t p2p_messages = 0;
  std::size_t p2p_reversed = 0;    ///< t_recv < t_send
  std::size_t p2p_violations = 0;  ///< t_recv < t_send + l_min
  Duration p2p_worst = 0.0;        ///< largest (t_send + l_min - t_recv) > 0

  // -- logical messages from collectives ---------------------------------------
  std::size_t logical_messages = 0;
  std::size_t logical_reversed = 0;
  std::size_t logical_violations = 0;
  Duration logical_worst = 0.0;

  // -- event census (Fig. 7's back row) ----------------------------------------
  std::size_t total_events = 0;
  std::size_t message_events = 0;  ///< Send + Recv + CollBegin + CollEnd

  double p2p_reversed_pct() const;
  double p2p_violation_pct() const;
  double logical_reversed_pct() const;
  double message_event_pct() const;
  /// Reversal percentage over p2p plus logical messages combined.
  double combined_reversed_pct() const;

  std::size_t violations() const { return p2p_violations + logical_violations; }

  /// Tallies one constraint edge whose source (send / collective begin) is at
  /// `ts` and whose target (receive / collective end) is at `tr`.
  void add_edge(bool logical, Time ts, Time tr, Duration l_min) {
    std::size_t& messages = logical ? logical_messages : p2p_messages;
    std::size_t& reversed = logical ? logical_reversed : p2p_reversed;
    std::size_t& violating = logical ? logical_violations : p2p_violations;
    Duration& worst = logical ? logical_worst : p2p_worst;
    ++messages;
    if (tr < ts) ++reversed;
    if (tr < ts + l_min) {
      ++violating;
      worst = std::max(worst, ts + l_min - tr);
    }
  }

  /// Counts one event into the census.
  void add_event(EventType type) {
    ++total_events;
    switch (type) {
      case EventType::Send:
      case EventType::Recv:
      case EventType::CollBegin:
      case EventType::CollEnd:
        ++message_events;
        break;
      default:
        break;
    }
  }

  bool operator==(const ClockConditionReport&) const = default;
};

/// Single pass over the constraint edges of an already-built ReplaySchedule:
/// each edge is one matched p2p or derived logical message.  `timestamps`
/// (any correction output) must have the trace's shape, extra ranks
/// included; otherwise std::invalid_argument.
ClockConditionReport check_clock_condition(const Trace& trace,
                                           const TimestampArray& timestamps,
                                           const ReplaySchedule& schedule);

/// Convenience: matches messages, derives the logical ones, builds the
/// schedule, and scans it.
ClockConditionReport check_clock_condition(const Trace& trace,
                                           const TimestampArray& timestamps);

}  // namespace chronosync
