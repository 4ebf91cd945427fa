#include "sync/node_coupling.hpp"

#include <gtest/gtest.h>

#include "analysis/clock_condition.hpp"
#include "topology/cluster.hpp"
#include "verify/clock_condition_oracle.hpp"

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

}  // namespace
}  // namespace chronosync
