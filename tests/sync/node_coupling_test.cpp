#include "sync/node_coupling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "analysis/clock_condition.hpp"
#include "sync/clc_kernel.hpp"
#include "topology/cluster.hpp"
#include "trace/logical_messages.hpp"
#include "verify/clock_condition_oracle.hpp"
#include "workload/pop.hpp"

namespace chronosync {
namespace {

Event make_event(EventType ty, Time t, std::int64_t id = -1, Rank peer = -1) {
  Event e;
  e.type = ty;
  e.local_ts = e.true_ts = t;
  e.msg_id = id;
  e.peer = peer;
  return e;
}

/// Ranks 0 (node A), 1 and 2 (node B).  Rank 1 has a violated receive from
/// rank 0; rank 2 is co-located with rank 1 but has only local events near
/// the jump time.
struct CoupledFixture {
  Trace trace{Placement({{0, 0, 0}, {1, 0, 0}, {1, 0, 1}}),
              {0.47e-6, 0.86e-6, 4.29e-6},
              "test"};
  CoupledFixture() {
    trace.events(0).push_back(make_event(EventType::Send, 2.0, 0, 1));
    // Rank 1: recv 100 us too early -> a 100 us jump.
    trace.events(1).push_back(make_event(EventType::Enter, 1.5));
    trace.events(1).push_back(make_event(EventType::Recv, 1.9999, 0, 0));
    trace.events(1).push_back(make_event(EventType::Exit, 2.1));
    // Rank 2 shares node B's clock: its events near t=2 carry the same error.
    trace.events(2).push_back(make_event(EventType::Enter, 1.9998));
    trace.events(2).push_back(make_event(EventType::Exit, 2.0002));
  }
};

TEST(NodeCoupling, PropagatesJumpToColocatedRank) {
  CoupledFixture fx;
  const auto msgs = fx.trace.match_messages();
  const ReplaySchedule schedule(fx.trace, msgs, {});
  const auto input = TimestampArray::from_local(fx.trace);

  const ClcResult plain = controlled_logical_clock(fx.trace, schedule, input);
  const NodeCoupledClcResult coupled = node_coupled_clc(fx.trace, schedule, input);

  // Plain CLC never touches rank 2 (it has no messages).
  EXPECT_DOUBLE_EQ(plain.corrected.at({2, 0}), 1.9998);
  // Coupling moves rank 2's events near the jump forward like rank 1's.
  EXPECT_GT(coupled.coupled_moves, 0u);
  EXPECT_GT(coupled.clc.corrected.at({2, 0}), 1.9998);
  EXPECT_GT(coupled.max_coupled_shift, 10 * units::us);
}

TEST(NodeCoupling, RemoteRankUnaffected) {
  CoupledFixture fx;
  const auto msgs = fx.trace.match_messages();
  const ReplaySchedule schedule(fx.trace, msgs, {});
  const auto input = TimestampArray::from_local(fx.trace);
  const NodeCoupledClcResult coupled = node_coupled_clc(fx.trace, schedule, input);
  // Rank 0 sits alone on node A: coupling cannot change it.
  EXPECT_DOUBLE_EQ(coupled.clc.corrected.at({0, 0}), 2.0);
}

TEST(NodeCoupling, NoNewViolations) {
  CoupledFixture fx;
  // Give rank 2 a send whose receive (on rank 0) sits just above it, so the
  // coupling shift must be capped.
  fx.trace.events(2).push_back(make_event(EventType::Send, 2.0003, 1, 0));
  fx.trace.events(0).push_back(make_event(EventType::Recv, 2.001, 1, 2));
  const auto msgs = fx.trace.match_messages();
  const ReplaySchedule schedule(fx.trace, msgs, {});
  const auto input = TimestampArray::from_local(fx.trace);

  const NodeCoupledClcResult coupled = node_coupled_clc(fx.trace, schedule, input);
  const auto rep = verify::clock_condition_oracle(fx.trace, coupled.clc.corrected, msgs, {});
  EXPECT_EQ(rep.violations(), 0u);
}

TEST(NodeCoupling, MonotonicityPreserved) {
  CoupledFixture fx;
  const auto msgs = fx.trace.match_messages();
  const ReplaySchedule schedule(fx.trace, msgs, {});
  const NodeCoupledClcResult coupled =
      node_coupled_clc(fx.trace, schedule, TimestampArray::from_local(fx.trace));
  for (Rank r = 0; r < 3; ++r) {
    const auto& v = coupled.clc.corrected.of_rank(r);
    for (std::size_t i = 1; i < v.size(); ++i) EXPECT_GE(v[i], v[i - 1]);
  }
}

TEST(NodeCoupling, OneRankPerNodeEqualsPlainClc) {
  // Inter-node placement: no co-location, coupling must be a no-op.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 2), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  trace.events(0).push_back(make_event(EventType::Send, 1.0, 0, 1));
  trace.events(1).push_back(make_event(EventType::Recv, 0.9, 0, 0));
  const auto msgs = trace.match_messages();
  const ReplaySchedule schedule(trace, msgs, {});
  const auto input = TimestampArray::from_local(trace);
  const ClcResult plain = controlled_logical_clock(trace, schedule, input);
  const NodeCoupledClcResult coupled = node_coupled_clc(trace, schedule, input);
  EXPECT_EQ(coupled.coupled_moves, 0u);
  for (Rank r = 0; r < 2; ++r) {
    for (std::uint32_t i = 0; i < trace.events(r).size(); ++i) {
      EXPECT_DOUBLE_EQ(coupled.clc.corrected.at({r, i}), plain.corrected.at({r, i}));
    }
  }
}

TEST(NodeCoupling, CleanTraceUntouched) {
  CoupledFixture fx;
  fx.trace.events(1)[1].local_ts = 2.1;  // remove the violation
  fx.trace.events(1)[2].local_ts = 2.2;  // keep monotone
  const auto msgs = fx.trace.match_messages();
  const ReplaySchedule schedule(fx.trace, msgs, {});
  const NodeCoupledClcResult coupled =
      node_coupled_clc(fx.trace, schedule, TimestampArray::from_local(fx.trace));
  EXPECT_EQ(coupled.clc.violations_repaired, 0u);
  EXPECT_EQ(coupled.coupled_moves, 0u);
}

TEST(NodeCoupling, NonFiniteInputReadsNoKnotOutOfRange) {
  // A NaN input timestamp on rank 2 makes a NaN lookup into rank 1's profile
  // and a NaN front knot in rank 2's own; neither may read outside the knots
  // (a lower_bound over them returned the first knot, whose predecessor the
  // interpolation then read).
  CoupledFixture fx;
  const ReplaySchedule schedule(fx.trace, fx.trace.match_messages(), {});
  TimestampArray input = TimestampArray::from_local(fx.trace);
  input.of_rank(2)[0] = std::numeric_limits<double>::quiet_NaN();
  const NodeCoupledClcResult coupled = node_coupled_clc(fx.trace, schedule, input);
  EXPECT_TRUE(std::isnan(coupled.clc.corrected.at({2, 0})));
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isfinite(coupled.clc.corrected.at({1, i})));
  }
  EXPECT_GT(coupled.clc.corrected.at({2, 1}), 2.0002);  // still coupled to rank 1's jump
}

/// Reference node coupling: every event reads each neighbour's profile with
/// a lower_bound over the knots.
NodeCoupledClcResult lower_bound_node_coupling(const Trace& trace,
                                               const ReplaySchedule& schedule,
                                               const TimestampArray& input) {
  using Knots = std::vector<std::pair<Time, Duration>>;
  const auto at = [](const Knots& knots, Time t) -> Duration {
    if (knots.empty()) return 0.0;
    if (t <= knots.front().first) return knots.front().second;
    if (t >= knots.back().first) return knots.back().second;
    const auto it =
        std::lower_bound(knots.begin(), knots.end(), t,
                         [](const std::pair<Time, Duration>& k, Time v) { return k.first < v; });
    const double f = (t - (it - 1)->first) / (it->first - (it - 1)->first);
    return (it - 1)->second + f * (it->second - (it - 1)->second);
  };

  NodeCoupledClcResult result;
  result.clc = controlled_logical_clock(trace, schedule, input);
  std::map<int, std::vector<Rank>> nodes;
  std::vector<Knots> profiles(static_cast<std::size_t>(trace.ranks()));
  std::vector<std::vector<Time>> cap(static_cast<std::size_t>(trace.ranks()));
  for (Rank r = 0; r < trace.ranks(); ++r) {
    nodes[trace.placement().location(r).node].push_back(r);
    const auto& in = input.of_rank(r);
    const auto& out = result.clc.corrected.of_rank(r);
    Knots& knots = profiles[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (!knots.empty() && in[i] <= knots.back().first) {
        knots.back().second = std::max(knots.back().second, out[i] - in[i]);
      } else {
        knots.push_back({in[i], out[i] - in[i]});
      }
    }
    cap[static_cast<std::size_t>(r)].assign(in.size(), kTimeInfinity);
  }
  schedule.for_each_timed_edge(result.clc.corrected, [&](const EventRef&, Time recv,
                                                         const EventRef& send, Time,
                                                         Duration l_min, bool) {
    Time& c = cap[static_cast<std::size_t>(send.proc)][send.index];
    c = std::min(c, clc_kernel::send_cap(recv, l_min));
  });
  for (const auto& [node, ranks] : nodes) {
    if (ranks.size() < 2) continue;
    for (Rank r : ranks) {
      auto& out = result.clc.corrected.of_rank(r);
      const auto& in = input.of_rank(r);
      Time successor = kTimeInfinity;
      for (std::size_t i = in.size(); i-- > 0;) {
        Duration want = out[i] - in[i];
        for (Rank q : ranks) {
          if (q != r) want = std::max(want, at(profiles[static_cast<std::size_t>(q)], in[i]));
        }
        Time moved = std::min(in[i] + want, cap[static_cast<std::size_t>(r)][i]);
        moved = std::min(moved, successor);
        if (moved > out[i] + 1e-15) {
          result.max_coupled_shift = std::max(result.max_coupled_shift, moved - out[i]);
          out[i] = moved;
          ++result.coupled_moves;
        }
        successor = std::min(successor, out[i]);
      }
    }
  }
  return result;
}

/// node_coupled_clc equals the lower_bound reference bit for bit.
void expect_matches_lower_bound(const Trace& trace, const TimestampArray& input) {
  const ReplaySchedule schedule(trace, trace.match_messages(), derive_logical_messages(trace));
  const NodeCoupledClcResult got = node_coupled_clc(trace, schedule, input);
  const NodeCoupledClcResult want = lower_bound_node_coupling(trace, schedule, input);
  EXPECT_GT(want.coupled_moves, 0u);  // the inputs must exercise coupling
  EXPECT_EQ(got.coupled_moves, want.coupled_moves);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max_coupled_shift),
            std::bit_cast<std::uint64_t>(want.max_coupled_shift));
  for (Rank r = 0; r < trace.ranks(); ++r) {
    const auto& a = got.clc.corrected.of_rank(r);
    const auto& b = want.clc.corrected.of_rank(r);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]), std::bit_cast<std::uint64_t>(b[i]))
          << "rank " << r << " event " << i;
    }
  }
}

/// POP on an 8x4 grid, pinned by block so ranks share nodes.
Trace pop_block_pinned() {
  PopConfig cfg;
  cfg.px = 8;
  cfg.py = 4;
  cfg.total_iterations = 40;
  cfg.traced_begin = 10;
  cfg.traced_end = 30;
  cfg.iter_compute = 500 * units::us;
  JobConfig job;
  job.placement = pinning::block(clusters::xeon_rwth(), cfg.px * cfg.py);
  job.timer = timer_specs::intel_tsc();
  job.seed = 5;
  return run_pop(cfg, std::move(job)).trace;
}

TEST(NodeCoupling, ProfileCursorMatchesLowerBoundOnPop) {
  const Trace trace = pop_block_pinned();
  expect_matches_lower_bound(trace, TimestampArray::from_local(trace));
}

TEST(NodeCoupling, ProfileCursorMatchesLowerBoundWhenInputStepsBack) {
  // Every 7th event of each rank steps back below its predecessor or repeats
  // it, so the cursors must also walk up, and profiles merge equal or
  // backward knots.  Every 5th event of an odd rank takes its node
  // neighbour's input timestamp, so lookups land exactly on knots.
  const Trace trace = pop_block_pinned();
  TimestampArray input = TimestampArray::from_local(trace);
  for (Rank r = 0; r < trace.ranks(); ++r) {
    auto& row = input.of_rank(r);
    for (std::size_t i = 7; i < row.size(); i += 7) row[i] = row[i - 1] - 3e-6 * (i % 3);
    if (r % 2 == 0) continue;
    const auto& neighbour = input.of_rank(r - 1);
    for (std::size_t i = 5; i < std::min(row.size(), neighbour.size()); i += 5) {
      row[i] = neighbour[i];
    }
  }
  ASSERT_EQ(trace.placement().location(1).node, trace.placement().location(0).node);
  expect_matches_lower_bound(trace, input);
}

}  // namespace
}  // namespace chronosync
