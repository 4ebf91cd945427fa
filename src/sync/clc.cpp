#include "sync/clc.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "sync/clc_kernel.hpp"

namespace chronosync {

namespace {

// The forward pass drains one rank at a time.  A rank runs until its next
// event has a constraining send that is not yet processed; it then *parks* on
// the rank owning that send, and that rank re-queues it once its own drain
// has moved past the send.  Each rank keeps its place in the blocked event's
// incoming edges (and the partial Eq. 1 bound over the edges already passed),
// so a woken rank resumes the scan instead of restarting it: every edge is
// scanned once, plus once more per park.  The work is O(events + edges) with
// no per-event dependency counters and no walk over outgoing edges.
clc_kernel::ForwardPass drain_forward(const Trace& trace, const ReplaySchedule& schedule,
                                      const TimestampArray& input, const ClcOptions& options) {
  CS_SPAN("clc.forward_pass");
  const auto ranks = static_cast<std::size_t>(trace.ranks());
  // Raw views over the schedule's CSR arrays: the per-edge hot path must not
  // pay the bounds-checked accessors' branches.
  const Rank* const ranks_of = schedule.ranks_of().data();
  const std::uint32_t* const rank_off = schedule.rank_offsets().data();
  const std::uint32_t* const in_off = schedule.incoming_offsets().data();
  const ReplaySchedule::ConstraintEdge* const in_edges = schedule.incoming_edges().data();

  clc_kernel::ForwardPass fwd;
  fwd.lc.assign(schedule.events(), 0.0);
  fwd.jump.assign(schedule.events(), 0.0);

  struct Cursor {
    std::uint32_t next = 0;  ///< global index of the rank's next unprocessed event
    std::uint32_t edge = 0;  ///< resume point in next's incoming edges
    Time bound = -kTimeInfinity;  ///< Eq. 1 bound over the edges before `edge`
    clc_kernel::RankClock clock;
  };
  std::vector<Cursor> cursor(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    cursor[r].next = rank_off[r];
    cursor[r].edge = in_off[rank_off[r]];
  }

  // parked[x]: (awaited global index, rank) of every rank parked on rank x,
  // a min-heap on the awaited index.
  using Park = std::pair<std::uint32_t, Rank>;
  std::vector<std::vector<Park>> parked(ranks);

  // FIFO ring of runnable ranks.  A rank is running, queued, parked or done,
  // so the ring never holds more than `ranks` entries.
  std::vector<Rank> ready(ranks);
  std::size_t head = 0;
  std::size_t queued = 0;
  auto enqueue = [&](Rank r) {
    ready[(head + queued) % ranks] = r;
    ++queued;
  };
  for (std::size_t r = 0; r < ranks; ++r) enqueue(static_cast<Rank>(r));

  // Hot-loop tallies stay in locals; the registry is touched once per call.
  std::uint64_t edges_scanned = 0;
  std::uint64_t rank_parks = 0;

  while (queued > 0) {
    const Rank r = ready[head];
    head = (head + 1) % ranks;
    --queued;
    Cursor& c = cursor[static_cast<std::size_t>(r)];
    const std::uint32_t base = rank_off[static_cast<std::size_t>(r)];
    const std::uint32_t end = rank_off[static_cast<std::size_t>(r) + 1];
    const Time* const in_row = input.of_rank(r).data();

    while (c.next < end) {
      const std::uint32_t g = c.next;
      const std::uint32_t edge_end = in_off[g + 1];
      Rank blocker = -1;
      for (; c.edge < edge_end; ++c.edge) {
        ++edges_scanned;
        const auto& edge = in_edges[c.edge];
        const Rank src_rank = ranks_of[edge.source];
        if (edge.source >= cursor[static_cast<std::size_t>(src_rank)].next) {
          blocker = src_rank;
          break;
        }
        c.bound = clc_kernel::eq1_bound(c.bound, fwd.lc[edge.source], edge.l_min);
      }
      if (blocker >= 0) {
        auto& heap = parked[static_cast<std::size_t>(blocker)];
        heap.emplace_back(in_edges[c.edge].source, r);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
        ++rank_parks;
        break;
      }
      const clc_kernel::Step step =
          clc_kernel::forward_step(c.clock, in_row[g - base], c.bound, options.forward_decay);
      fwd.lc[g] = step.lc;
      fwd.jump[g] = step.jump;
      c.bound = -kTimeInfinity;
      c.next = g + 1;
      // c.edge == edge_end == in_off[g + 1]: already the next event's first edge.
    }

    // Re-queue every rank parked on a send this drain has now processed.
    auto& heap = parked[static_cast<std::size_t>(r)];
    while (!heap.empty() && heap.front().first < c.next) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      enqueue(heap.back().second);
      heap.pop_back();
    }
  }

  // Every rank still short of its end is parked on a rank that is itself
  // parked: the constraint graph has a cycle.
  for (std::size_t r = 0; r < ranks; ++r) {
    if (cursor[r].next < rank_off[r + 1]) {
      throw_cyclic_constraints({static_cast<Rank>(r), cursor[r].next - rank_off[r]});
    }
  }

  if (obs::metrics_enabled()) {
    static obs::Counter& scanned = obs::counter("clc.edges_scanned");
    static obs::Counter& parks = obs::counter("clc.rank_parks");
    scanned.add(static_cast<std::int64_t>(edges_scanned));
    parks.add(static_cast<std::int64_t>(rank_parks));
  }
  return fwd;
}

void backward_pass(const Trace& trace, const ReplaySchedule& schedule,
                   clc_kernel::ForwardPass& fwd, const ClcOptions& options) {
  CS_SPAN("clc.backward_pass");

  // Upper caps for send events: a send may be raised at most to its
  // receive's (forward-pass) timestamp minus l_min, or it would introduce a
  // fresh violation.  Receives and local events have no cap.
  std::vector<Time> cap(schedule.events(), kTimeInfinity);
  for (std::uint32_t g = 0; g < schedule.events(); ++g) {
    for (const auto& edge : schedule.incoming(g)) {
      cap[edge.source] = std::min(cap[edge.source], clc_kernel::send_cap(fwd.lc[g], edge.l_min));
    }
  }

  // Per process, sweep backwards applying the ramp of the nearest following
  // jump; monotonicity is maintained by clamping against the successor.
  for (Rank r = 0; r < trace.ranks(); ++r) {
    const auto n = static_cast<std::uint32_t>(trace.events(r).size());
    if (n == 0) continue;

    bool have_jump = false;
    Time jump_at = 0.0;      // corrected timestamp of the jump event
    Duration jump_size = 0.0;
    Duration window = 0.0;

    Time successor = kTimeInfinity;
    for (std::uint32_t i = n; i-- > 0;) {
      const std::uint32_t g = schedule.global_index({r, i});
      const Time lc = fwd.lc[g];

      if (fwd.jump[g] > 0.0) {
        // This event is itself a jump: events before it are smoothed toward
        // it.  (The jump event keeps its forward-pass value.)
        have_jump = true;
        jump_at = lc;
        jump_size = fwd.jump[g];
        window = jump_size / options.backward_slope;
        successor = std::min(successor, lc);
        continue;
      }

      if (have_jump) {
        const Duration dist = jump_at - lc;
        if (dist >= 0.0 && dist < window) {
          Time moved = lc + clc_kernel::ramp_shift(jump_size, dist, window);
          moved = std::min(moved, cap[g]);      // never break a send's condition
          moved = std::min(moved, successor);   // keep local order
          fwd.lc[g] = std::max(moved, lc);      // only ever move forward
        } else if (dist >= window) {
          have_jump = false;  // out of the amortization window
        }
      }
      successor = std::min(successor, fwd.lc[g]);
    }
  }
}

}  // namespace

namespace clc_kernel {

ClcResult finish(const Trace& trace, const ReplaySchedule& schedule, const TimestampArray& input,
                 ForwardPass fwd, const ClcOptions& options) {
  ClcResult result;
  // Jump aggregates come from the jump[] array in global-index order, so any
  // visit order that yields the same per-event jumps reports bit-identical
  // statistics.
  for (const Duration j : fwd.jump) {
    if (j > 0.0) {
      ++result.violations_repaired;
      result.max_jump = std::max(result.max_jump, j);
      result.total_jump += j;
    }
  }
  if (options.backward_amortization) backward_pass(trace, schedule, fwd, options);

  result.corrected = input;  // same shape
  for (Rank r = 0; r < trace.ranks(); ++r) {
    auto& v = result.corrected.of_rank(r);
    const std::uint32_t base = schedule.rank_begin(r);
    for (std::uint32_t i = 0; i < v.size(); ++i) {
      v[i] = fwd.lc[base + i];
    }
  }
  return result;
}

}  // namespace clc_kernel

ClcResult controlled_logical_clock(const Trace& trace, const ReplaySchedule& schedule,
                                   const TimestampArray& input, const ClcOptions& options) {
  CS_SPAN("clc.controlled_logical_clock");
  if (trace.ranks() == 0 || schedule.events() == 0) {
    // Nothing to replay: hand the input back unchanged.
    ClcResult empty;
    empty.corrected = input;
    return empty;
  }
  clc_kernel::require_valid(options);
  CS_REQUIRE(input.ranks() == trace.ranks(), "input timestamps must match the trace's ranks");
  for (Rank r = 0; r < trace.ranks(); ++r) {
    CS_REQUIRE(input.of_rank(r).size() == schedule.rank_size(r),
               "input timestamps must match the trace's event counts");
  }
  ClcResult result = clc_kernel::finish(
      trace, schedule, input, drain_forward(trace, schedule, input, options), options);
  if (obs::metrics_enabled()) {
    static obs::Counter& events = obs::counter("clc.events_processed");
    static obs::Counter& repaired = obs::counter("clc.violations_repaired");
    events.add(static_cast<std::int64_t>(schedule.events()));
    repaired.add(static_cast<std::int64_t>(result.violations_repaired));
  }
  return result;
}

}  // namespace chronosync
