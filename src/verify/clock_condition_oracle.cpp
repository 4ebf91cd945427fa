#include "verify/clock_condition_oracle.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace chronosync::verify {

ClockConditionReport clock_condition_oracle(const Trace& trace,
                                            const TimestampArray& timestamps,
                                            const std::vector<MessageRecord>& messages,
                                            const std::vector<LogicalMessage>& logical) {
  CS_SPAN("verify.clock_condition_oracle");
  ClockConditionReport rep;

  for (const auto& m : messages) {
    ++rep.p2p_messages;
    const Time ts = timestamps.at(m.send);
    const Time tr = timestamps.at(m.recv);
    const Duration l_min = trace.min_latency(m.send.proc, m.recv.proc);
    if (tr < ts) ++rep.p2p_reversed;
    if (tr < ts + l_min) {
      ++rep.p2p_violations;
      rep.p2p_worst = std::max(rep.p2p_worst, ts + l_min - tr);
    }
  }

  for (const auto& lm : logical) {
    ++rep.logical_messages;
    const Time ts = timestamps.at(lm.send);
    const Time tr = timestamps.at(lm.recv);
    const Duration l_min = trace.min_latency(lm.send.proc, lm.recv.proc);
    if (tr < ts) ++rep.logical_reversed;
    if (tr < ts + l_min) {
      ++rep.logical_violations;
      rep.logical_worst = std::max(rep.logical_worst, ts + l_min - tr);
    }
  }

  rep.total_events = trace.total_events();
  for (Rank r = 0; r < trace.ranks(); ++r) {
    for (const Event& e : trace.events(r)) {
      switch (e.type) {
        case EventType::Send:
        case EventType::Recv:
        case EventType::CollBegin:
        case EventType::CollEnd:
          ++rep.message_events;
          break;
        default:
          break;
      }
    }
  }
  return rep;
}

}  // namespace chronosync::verify
