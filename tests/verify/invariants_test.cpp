// InvariantChecker: every violation kind must be detected, counted exactly,
// and attributed to the right events; a clean trace must audit clean.
#include "verify/invariants.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "topology/cluster.hpp"
#include "trace/logical_messages.hpp"

namespace chronosync {
namespace {

Trace make_trace() {
  Trace t(pinning::inter_node(clusters::xeon_rwth(), 2),
          {0.47e-6, 0.86e-6, 4.29e-6}, "test");
  Event s;
  s.type = EventType::Send;
  s.peer = 1;
  s.msg_id = 0;
  s.local_ts = s.true_ts = 1.0;
  t.events(0).push_back(s);

  Event r = s;
  r.type = EventType::Recv;
  r.peer = 0;
  r.local_ts = r.true_ts = 1.5;
  t.events(1).push_back(r);

  Event s2;
  s2.type = EventType::Send;
  s2.peer = 0;
  s2.msg_id = 1;
  s2.local_ts = s2.true_ts = 1.8;
  t.events(1).push_back(s2);

  Event r2 = s2;
  r2.type = EventType::Recv;
  r2.peer = 1;
  r2.local_ts = r2.true_ts = 2.0;
  t.events(0).push_back(r2);
  return t;
}

struct Fixture {
  Trace trace;
  std::vector<MessageRecord> msgs;
  std::vector<LogicalMessage> logical;
  ReplaySchedule schedule;

  Fixture()
      : trace(make_trace()),
        msgs(trace.match_messages()),
        logical(derive_logical_messages(trace)),
        schedule(trace, msgs, logical) {}
};

TEST(InvariantChecker, CleanTraceAuditsClean) {
  Fixture fx;
  const verify::InvariantChecker checker(fx.trace, fx.schedule);
  const auto report = checker.check(TimestampArray::from_local(fx.trace));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.events_checked, 4u);
  EXPECT_EQ(report.edges_checked, 2u);
}

TEST(InvariantChecker, DetectsNonFiniteTimestamp) {
  Fixture fx;
  auto ts = TimestampArray::from_local(fx.trace);
  ts.of_rank(1)[0] = std::nan("");
  const verify::InvariantChecker checker(fx.trace, fx.schedule);
  const auto report = checker.check(ts);
  EXPECT_EQ(report.count(verify::InvariantKind::NonFiniteTimestamp), 1u);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations.front().rank, 1);
}

TEST(InvariantChecker, DetectsLocalOrderInversion) {
  Fixture fx;
  auto ts = TimestampArray::from_local(fx.trace);
  ts.of_rank(1)[1] = 1.0;  // send now precedes the rank's earlier recv
  const verify::InvariantChecker checker(fx.trace, fx.schedule);
  const auto report = checker.check(ts);
  EXPECT_EQ(report.count(verify::InvariantKind::LocalOrderInversion), 1u);
  ASSERT_FALSE(report.violations.empty());
  const auto& v = report.violations.front();
  EXPECT_EQ(v.kind, verify::InvariantKind::LocalOrderInversion);
  EXPECT_EQ(v.rank, 1);
  EXPECT_TRUE(v.has_other);
  EXPECT_NEAR(v.slack, 0.5, 1e-12);
}

TEST(InvariantChecker, DetectsClockConditionViolation) {
  Fixture fx;
  auto ts = TimestampArray::from_local(fx.trace);
  ts.of_rank(0)[1] = 1.8;  // recv now coincides with its send
  const verify::InvariantChecker checker(fx.trace, fx.schedule);
  const auto report = checker.check(ts);
  EXPECT_EQ(report.count(verify::InvariantKind::ClockCondition), 1u);
  // Violation size is exactly the unmet minimum latency.
  EXPECT_NEAR(report.worst_slack(verify::InvariantKind::ClockCondition), 4.29e-6, 1e-12);
  // Attributed to rank 1's send (event 1) -> rank 0's recv (event 1).
  ASSERT_EQ(report.violations.size(), 1u);
  const auto& v = report.violations.front();
  EXPECT_EQ(v.kind, verify::InvariantKind::ClockCondition);
  EXPECT_EQ(v.rank, 0);
  EXPECT_EQ(v.event, (EventRef{0, 1}));
  EXPECT_TRUE(v.has_other);
  EXPECT_EQ(v.other, (EventRef{1, 1}));
}

TEST(InvariantChecker, SlackToleratesSmallViolations) {
  Fixture fx;
  auto ts = TimestampArray::from_local(fx.trace);
  ts.of_rank(0)[1] = 1.8;
  verify::VerifyOptions opt;
  opt.clock_condition_slack = 1e-5;
  const verify::InvariantChecker checker(fx.trace, fx.schedule, opt);
  EXPECT_TRUE(checker.check(ts).ok());
}

TEST(InvariantChecker, CorrectionMustNotMoveEventsBackward) {
  Fixture fx;
  const auto input = TimestampArray::from_local(fx.trace);
  auto corrected = input;
  corrected.of_rank(0)[0] -= 1e-3;
  const verify::InvariantChecker checker(fx.trace, fx.schedule);
  const auto report = checker.check_correction(input, corrected);
  EXPECT_EQ(report.count(verify::InvariantKind::BackwardCorrection), 1u);
  EXPECT_NEAR(report.worst_slack(verify::InvariantKind::BackwardCorrection), 1e-3, 1e-12);
}

TEST(InvariantChecker, RecordedViolationsAreCappedCountsStayExact) {
  // The fixture's four events plus 70 local ones: 74 violations, more than
  // the recording cap.
  Trace trace = make_trace();
  for (int k = 0; k < 70; ++k) {
    Event e;
    e.type = EventType::Enter;
    e.local_ts = e.true_ts = 3.0 + k;
    trace.events(0).push_back(e);
  }
  const auto msgs = trace.match_messages();
  const auto logical = derive_logical_messages(trace);
  const ReplaySchedule schedule(trace, msgs, logical);
  auto ts = TimestampArray::from_local(trace);
  for (Rank r = 0; r < trace.ranks(); ++r) {
    for (auto& t : ts.of_rank(r)) t = std::nan("");
  }
  const verify::InvariantChecker checker(trace, schedule);
  const auto report = checker.check(ts);
  EXPECT_EQ(report.count(verify::InvariantKind::NonFiniteTimestamp), 74u);
  EXPECT_EQ(report.violations.size(), verify::kMaxRecordedViolations);
  EXPECT_EQ(report.total(), 74u);
}

TEST(InvariantChecker, RejectsMismatchedTraceAndSchedule) {
  Fixture fx;
  Trace other = make_trace();
  Event extra;
  extra.type = EventType::Enter;
  extra.local_ts = extra.true_ts = 3.0;
  other.events(0).push_back(extra);
  EXPECT_THROW(verify::InvariantChecker(other, fx.schedule), std::invalid_argument);
  // Same events, one more (empty) rank: the totals agree, the shapes do not.
  Trace wider(pinning::inter_node(clusters::xeon_rwth(), 3), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  for (Rank r = 0; r < 2; ++r) wider.events(r) = fx.trace.events(r);
  EXPECT_THROW(verify::InvariantChecker(wider, fx.schedule), std::invalid_argument);
}

TEST(InvariantChecker, SummaryNamesEveryViolationKind) {
  Fixture fx;
  auto ts = TimestampArray::from_local(fx.trace);
  ts.of_rank(0)[1] = 1.8;
  const verify::InvariantChecker checker(fx.trace, fx.schedule);
  const std::string s = checker.check(ts).summary();
  EXPECT_NE(s.find("clock condition"), std::string::npos) << s;
}

}  // namespace
}  // namespace chronosync
