#include "analysis/clock_condition.hpp"

#include "common/expect.hpp"
#include "obs/obs.hpp"

namespace chronosync {

namespace {
double pct(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}
}  // namespace

double ClockConditionReport::p2p_reversed_pct() const { return pct(p2p_reversed, p2p_messages); }
double ClockConditionReport::p2p_violation_pct() const {
  return pct(p2p_violations, p2p_messages);
}
double ClockConditionReport::logical_reversed_pct() const {
  return pct(logical_reversed, logical_messages);
}
double ClockConditionReport::message_event_pct() const {
  return pct(message_events, total_events);
}
double ClockConditionReport::combined_reversed_pct() const {
  return pct(p2p_reversed + logical_reversed, p2p_messages + logical_messages);
}

ClockConditionReport check_clock_condition(const Trace& trace,
                                           const TimestampArray& timestamps,
                                           const ReplaySchedule& schedule) {
  CS_SPAN("analysis.clock_condition_csr");
  CS_REQUIRE(schedule.events() == trace.total_events() &&
                 schedule.rank_offsets().size() == static_cast<std::size_t>(trace.ranks()) + 1,
             "schedule was not built from this trace");
  ClockConditionReport rep;

  // One pass over every constraint edge; each is exactly one matched p2p or
  // derived logical message.
  schedule.for_each_timed_edge(timestamps, [&](const EventRef&, Time t_recv, const EventRef&,
                                               Time t_send, Duration l_min, bool logical) {
    rep.add_edge(logical, t_send, t_recv, l_min);
  });

  for (Rank r = 0; r < trace.ranks(); ++r) {
    for (const Event& e : trace.events(r)) rep.add_event(e.type);
  }
  return rep;
}

ClockConditionReport check_clock_condition(const Trace& trace,
                                           const TimestampArray& timestamps) {
  CS_SPAN("analysis.clock_condition_full");
  const ReplaySchedule schedule(trace, trace.match_messages(), derive_logical_messages(trace));
  return check_clock_condition(trace, timestamps, schedule);
}

}  // namespace chronosync
