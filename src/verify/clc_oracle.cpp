#include "verify/clc_oracle.hpp"

#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sync/clc_kernel.hpp"

namespace chronosync::verify {

namespace {

template <class Schedule>
ClcResult replay_order(const Trace& trace, const Schedule& schedule, const TimestampArray& input,
                       const ClcOptions& options) {
  CS_SPAN("verify.clc_oracle");
  if (trace.ranks() == 0 || schedule.events() == 0) {
    ClcResult empty;
    empty.corrected = input;
    return empty;
  }
  clc_kernel::require_valid(options);

  clc_kernel::ForwardPass fwd;
  fwd.lc.assign(schedule.events(), 0.0);
  std::vector<clc_kernel::RankClock> clock(static_cast<std::size_t>(trace.ranks()));

  schedule.replay([&](std::uint32_t g, const EventRef& ref) {
    Time bound = -kTimeInfinity;
    schedule.for_each_incoming(g, [&](const ReplaySchedule::ConstraintEdge& edge) {
      bound = clc_kernel::eq1_bound(bound, fwd.lc[edge.source], edge.l_min);
    });
    const clc_kernel::Step step = clc_kernel::forward_step(
        clock[static_cast<std::size_t>(ref.proc)], input.at(ref), bound, options.forward_decay);
    fwd.record(g, step);
  });

  return clc_kernel::finish(trace, schedule, std::move(fwd), options);
}

}  // namespace

ClcResult replay_order_clc(const Trace& trace, const ReplaySchedule& schedule,
                           const TimestampArray& input, const ClcOptions& options) {
  return replay_order(trace, schedule, input, options);
}

ClcResult replay_order_clc(const Trace& trace, const CsrSchedule& schedule,
                           const TimestampArray& input, const ClcOptions& options) {
  return replay_order(trace, schedule, input, options);
}

}  // namespace chronosync::verify
