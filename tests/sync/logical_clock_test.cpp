#include "sync/logical_clock.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "topology/cluster.hpp"

namespace chronosync {
namespace {

/// Two ranks, one message 0 -> 1 between local events.
struct SmallFixture {
  Trace trace{pinning::inter_node(clusters::xeon_rwth(), 2),
              {0.47e-6, 0.86e-6, 4.29e-6},
              "test"};

  SmallFixture() {
    auto ev = [](EventType ty, Time t, std::int64_t id = -1, Rank peer = -1) {
      Event e;
      e.type = ty;
      e.local_ts = e.true_ts = t;
      e.msg_id = id;
      e.peer = peer;
      return e;
    };
    // rank 0: Enter(1.0), Send(2.0, id 0), Exit(3.0)
    trace.events(0).push_back(ev(EventType::Enter, 1.0));
    trace.events(0).push_back(ev(EventType::Send, 2.0, 0, 1));
    trace.events(0).push_back(ev(EventType::Exit, 3.0));
    // rank 1: Enter(0.5), Recv(2.5, id 0), Exit(4.0)
    trace.events(1).push_back(ev(EventType::Enter, 0.5));
    trace.events(1).push_back(ev(EventType::Recv, 2.5, 0, 0));
    trace.events(1).push_back(ev(EventType::Exit, 4.0));
  }

  ReplaySchedule schedule() const {
    return ReplaySchedule(trace, trace.match_messages(), {});
  }
};

TEST(ReplaySchedule, GlobalIndexRoundTrip) {
  SmallFixture fx;
  const ReplaySchedule s = fx.schedule();
  EXPECT_EQ(s.events(), 6u);
  for (Rank r = 0; r < 2; ++r) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      const auto g = s.global_index({r, i});
      const EventRef back = s.event_ref(g);
      EXPECT_EQ(back.proc, r);
      EXPECT_EQ(back.index, i);
    }
  }
}

TEST(ReplaySchedule, RecvHasIncomingEdge) {
  SmallFixture fx;
  const ReplaySchedule s = fx.schedule();
  const auto recv_g = s.global_index({1, 1});
  ASSERT_EQ(s.incoming(recv_g).size(), 1u);
  EXPECT_EQ(s.incoming(recv_g)[0].source, s.global_index({0, 1}));
  EXPECT_DOUBLE_EQ(s.incoming(recv_g)[0].l_min, 4.29e-6);
}

TEST(ReplaySchedule, ReplayRespectsDependencies) {
  SmallFixture fx;
  const ReplaySchedule s = fx.schedule();
  std::vector<std::uint32_t> order;
  s.replay([&](std::uint32_t g, const EventRef&) { order.push_back(g); });
  EXPECT_EQ(order.size(), 6u);
  // The send must come before the recv.
  const auto send_g = s.global_index({0, 1});
  const auto recv_g = s.global_index({1, 1});
  const auto pos = [&](std::uint32_t g) {
    return std::find(order.begin(), order.end(), g) - order.begin();
  };
  EXPECT_LT(pos(send_g), pos(recv_g));
  // Per-process order preserved.
  EXPECT_LT(pos(s.global_index({0, 0})), pos(s.global_index({0, 1})));
  EXPECT_LT(pos(s.global_index({1, 0})), pos(s.global_index({1, 1})));
}

TEST(ReplaySchedule, SelfMessageEdgeHasZeroLatency) {
  // A rank's message to itself is ordered by program order already; its
  // edge carries no network latency (co-located ranks have none defined).
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 1), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  Event send;
  send.type = EventType::Send;
  send.local_ts = send.true_ts = 1.0;
  send.msg_id = 3;
  send.peer = 0;
  Event recv = send;
  recv.type = EventType::Recv;
  recv.local_ts = recv.true_ts = 2.0;
  trace.events(0).push_back(send);
  trace.events(0).push_back(recv);
  const ReplaySchedule s(trace, trace.match_messages(), {});
  ASSERT_EQ(s.incoming(1).size(), 1u);
  EXPECT_EQ(s.incoming(1)[0].source, 0u);
  EXPECT_EQ(s.incoming(1)[0].l_min, 0.0);
  EXPECT_EQ(lamport_clocks(trace, s)[0][1], 2u);
}

TEST(ReplaySchedule, RejectsEventRefPastItsRank) {
  // Two ranks with two events each: {0, 3} is not rank 1's event 1, and a
  // record whose receive index equals the last rank's size names no event.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 2), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  for (Rank r = 0; r < 2; ++r) {
    for (int i = 0; i < 2; ++i) {
      Event e;
      e.type = EventType::Enter;
      e.local_ts = e.true_ts = 1.0 + i;
      trace.events(r).push_back(e);
    }
  }
  const ReplaySchedule s(trace, {}, {});
  EXPECT_EQ(s.global_index({1, 1}), 3u);
  EXPECT_THROW(s.global_index({0, 2}), std::invalid_argument);
  EXPECT_THROW(s.global_index({0, 3}), std::invalid_argument);
  EXPECT_THROW(s.global_index({2, 0}), std::invalid_argument);

  MessageRecord past_end;
  past_end.send = {0, 0};
  past_end.recv = {1, 2};
  EXPECT_THROW(ReplaySchedule(trace, {past_end}, {}), std::invalid_argument);
  LogicalMessage past_end_logical;
  past_end_logical.send = {1, 2};
  past_end_logical.recv = {0, 1};
  EXPECT_THROW(ReplaySchedule(trace, {}, {past_end_logical}), std::invalid_argument);
}

TEST(LamportClocks, MessageInducesOrdering) {
  SmallFixture fx;
  const ReplaySchedule s = fx.schedule();
  const auto lc = lamport_clocks(fx.trace, s);
  // Recv's clock exceeds both the send's and its local predecessor's.
  EXPECT_GT(lc[1][1], lc[0][1]);
  EXPECT_GT(lc[1][1], lc[1][0]);
  // Local order strictly increases.
  EXPECT_LT(lc[0][0], lc[0][1]);
  EXPECT_LT(lc[0][1], lc[0][2]);
}

TEST(LamportClocks, IndependentEventsMayShareValues) {
  SmallFixture fx;
  const ReplaySchedule s = fx.schedule();
  const auto lc = lamport_clocks(fx.trace, s);
  EXPECT_EQ(lc[0][0], 1u);
  EXPECT_EQ(lc[1][0], 1u);
}

TEST(VectorClocks, HappenedBeforeAcrossMessage) {
  SmallFixture fx;
  const ReplaySchedule s = fx.schedule();
  const VectorClockIndex vc(fx.trace, s);
  // Send (0,1) happened before recv (1,1) and its successor (1,2).
  EXPECT_TRUE(vc.happened_before({0, 1}, {1, 1}));
  EXPECT_TRUE(vc.happened_before({0, 1}, {1, 2}));
  EXPECT_TRUE(vc.happened_before({0, 0}, {1, 1}));  // transitive via local order
  EXPECT_FALSE(vc.happened_before({1, 1}, {0, 1}));
}

TEST(VectorClocks, ConcurrencyDetected) {
  SmallFixture fx;
  const ReplaySchedule s = fx.schedule();
  const VectorClockIndex vc(fx.trace, s);
  // rank0 Enter and rank1 Enter are unrelated.
  EXPECT_TRUE(vc.concurrent({0, 0}, {1, 0}));
  // rank0 Exit and rank1 Recv: no path either way.
  EXPECT_TRUE(vc.concurrent({0, 2}, {1, 1}));
  // An event is not concurrent with itself's successors.
  EXPECT_FALSE(vc.concurrent({1, 0}, {1, 2}));
}

TEST(VectorClocks, LocalComponentCounts) {
  SmallFixture fx;
  const ReplaySchedule s = fx.schedule();
  const VectorClockIndex vc(fx.trace, s);
  EXPECT_EQ(vc.clock({0, 2})[0], 3u);
  EXPECT_EQ(vc.clock({0, 2})[1], 0u);
  // Recv merges the sender's component.
  EXPECT_EQ(vc.clock({1, 1})[0], 2u);
  EXPECT_EQ(vc.clock({1, 1})[1], 2u);
}

TEST(VectorClocks, LogicalMessagesInduceOrder) {
  // Barrier via logical messages: end events happen after all begins.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 3), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  for (Rank r = 0; r < 3; ++r) {
    Event b;
    b.type = EventType::CollBegin;
    b.coll = CollectiveKind::Barrier;
    b.coll_id = 0;
    b.local_ts = b.true_ts = 1.0;
    Event e = b;
    e.type = EventType::CollEnd;
    e.local_ts = e.true_ts = 2.0;
    trace.events(r).push_back(b);
    trace.events(r).push_back(e);
  }
  const auto logical = derive_logical_messages(trace);
  const ReplaySchedule s(trace, {}, logical);
  const VectorClockIndex vc(trace, s);
  EXPECT_TRUE(vc.happened_before({0, 0}, {1, 1}));
  EXPECT_TRUE(vc.happened_before({2, 0}, {0, 1}));
  EXPECT_TRUE(vc.concurrent({0, 0}, {1, 0}));
}

}  // namespace
}  // namespace chronosync
