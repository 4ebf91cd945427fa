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
// incoming edges (a ReplaySchedule::EdgeCursor, resumed by scan_incoming) and
// the partial Eq. 1 bound over the edges already passed, so a woken rank
// resumes the scan instead of restarting it: every edge is scanned once, plus
// once more per park.  The work is O(events + edges) with no per-event
// dependency counters and no walk over outgoing edges.
clc_kernel::ForwardPass drain_forward(const Trace& trace, const ReplaySchedule& schedule,
                                      const TimestampArray& input, const ClcOptions& options) {
  CS_SPAN("clc.forward_pass");
  const auto ranks = static_cast<std::size_t>(trace.ranks());
  const std::uint32_t* const rank_off = schedule.rank_offsets().data();

  clc_kernel::ForwardPass fwd;
  fwd.lc.assign(schedule.events(), 0.0);
  const Time* const lc = fwd.lc.data();

  struct Cursor {
    std::uint32_t next = 0;  ///< global index of the rank's next unprocessed event
    ReplaySchedule::EdgeCursor at;  ///< resume point in next's incoming edges
    Time bound = -kTimeInfinity;  ///< Eq. 1 bound over the edges before `at`
    clc_kernel::RankClock clock;
  };
  std::vector<Cursor> cursor(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    cursor[r].next = rank_off[r];
    cursor[r].at = schedule.first_edge(rank_off[r]);
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
  // A stint is one rank's drain from a wake-up to its next park or its end;
  // their lengths, in events, are kept only when metrics are on.
  std::uint64_t edges_scanned = 0;
  std::uint64_t rank_parks = 0;
  std::uint64_t stints = 0;
  const bool metered = obs::metrics_enabled();
  std::vector<std::uint32_t> stint_events;

  while (queued > 0) {
    const Rank r = ready[head];
    head = (head + 1) % ranks;
    --queued;
    Cursor& c = cursor[static_cast<std::size_t>(r)];
    const std::uint32_t base = rank_off[static_cast<std::size_t>(r)];
    const std::uint32_t end = rank_off[static_cast<std::size_t>(r) + 1];
    const Time* const in_row = input.of_rank(r).data();
    // The drain works on local copies of the cursor, stored back when it
    // parks or finishes; only c.next is kept current, for the blocked-source
    // test of a message this rank sent itself.
    ReplaySchedule::EdgeCursor at = c.at;
    Time bound = c.bound;
    clc_kernel::RankClock clock = c.clock;
    const std::uint32_t first = c.next;

    for (std::uint32_t g = c.next; g < end;) {
      Rank blocker = -1;
      std::uint32_t awaited = 0;
      const bool ready_now = schedule.scan_incoming(
          g, at, [&](const ReplaySchedule::ConstraintEdge& e, Rank src_rank) {
            ++edges_scanned;
            if (e.source >= cursor[static_cast<std::size_t>(src_rank)].next) {
              blocker = src_rank;
              awaited = e.source;
              return false;
            }
            bound = clc_kernel::eq1_bound(bound, lc[e.source], e.l_min);
            return true;
          });
      if (!ready_now) {
        auto& heap = parked[static_cast<std::size_t>(blocker)];
        heap.emplace_back(awaited, r);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
        ++rank_parks;
        break;
      }
      const clc_kernel::Step step =
          clc_kernel::forward_step(clock, in_row[g - base], bound, options.forward_decay);
      fwd.record(g, step);
      bound = -kTimeInfinity;
      c.next = ++g;
      // `at` is already on the next event's first edge.
    }
    c.at = at;
    c.bound = bound;
    c.clock = clock;
    ++stints;
    if (metered) stint_events.push_back(c.next - first);

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

  if (metered) {
    static obs::Counter& scanned = obs::counter("clc.edges_scanned");
    static obs::Counter& parks = obs::counter("clc.rank_parks");
    static obs::Counter& drain_stints = obs::counter("clc.drain_stints");
    static obs::QuantileHisto& stint_len = obs::quantile_histogram("clc.drain_stint_events");
    scanned.add(static_cast<std::int64_t>(edges_scanned));
    parks.add(static_cast<std::int64_t>(rank_parks));
    drain_stints.add(static_cast<std::int64_t>(stints));
    for (const std::uint32_t n : stint_events) stint_len.add(n);
  }
  return fwd;
}

}  // namespace

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
  CS_REQUIRE(schedule.events() == trace.total_events() &&
                 schedule.rank_offsets().size() == static_cast<std::size_t>(trace.ranks()) + 1,
             "schedule was not built from this trace");
  CS_REQUIRE(input.ranks() == trace.ranks(), "input timestamps must match the trace's ranks");
  for (Rank r = 0; r < trace.ranks(); ++r) {
    CS_REQUIRE(input.of_rank(r).size() == schedule.rank_size(r),
               "input timestamps must match the trace's event counts");
  }
  ClcResult result =
      clc_kernel::finish(trace, schedule, drain_forward(trace, schedule, input, options), options);
  if (obs::metrics_enabled()) {
    static obs::Counter& events = obs::counter("clc.events_processed");
    static obs::Counter& repaired = obs::counter("clc.violations_repaired");
    events.add(static_cast<std::int64_t>(schedule.events()));
    repaired.add(static_cast<std::int64_t>(result.violations_repaired));
  }
  return result;
}

}  // namespace chronosync
