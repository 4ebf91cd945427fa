#include <gtest/gtest.h>

#include <sstream>

#include "analysis/clock_condition.hpp"
#include "analysis/clock_condition_stream.hpp"
#include "analysis/deviation.hpp"
#include "analysis/interval_stats.hpp"
#include "analysis/omp_semantics.hpp"
#include "sync/offset_alignment.hpp"
#include "topology/cluster.hpp"
#include "trace/stream_io.hpp"
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

TEST(ClockCondition, CountsReversedAndViolated) {
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 2), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  // msg 0: consistent.  msg 1: violated but not reversed.  msg 2: reversed.
  trace.events(0).push_back(make_event(EventType::Send, 1.0, 0, 1));
  trace.events(0).push_back(make_event(EventType::Send, 2.0, 1, 1));
  trace.events(0).push_back(make_event(EventType::Send, 3.0, 2, 1));
  trace.events(1).push_back(make_event(EventType::Recv, 1.001, 0, 0));
  trace.events(1).push_back(make_event(EventType::Recv, 2.000001, 1, 0));  // < l_min after send
  trace.events(1).push_back(make_event(EventType::Recv, 2.9, 2, 0));       // before send

  const auto rep = check_clock_condition(trace, TimestampArray::from_local(trace));
  EXPECT_EQ(rep.p2p_messages, 3u);
  EXPECT_EQ(rep.p2p_reversed, 1u);
  EXPECT_EQ(rep.p2p_violations, 2u);
  EXPECT_NEAR(rep.p2p_worst, 0.1 + 4.29e-6, 1e-6);
  EXPECT_NEAR(rep.p2p_reversed_pct(), 100.0 / 3.0, 1e-9);
  EXPECT_EQ(rep.total_events, 6u);
  EXPECT_EQ(rep.message_events, 6u);
  EXPECT_DOUBLE_EQ(rep.message_event_pct(), 100.0);
}

TEST(ClockCondition, EdgesOnTheBoundsAreClassifiedAlike) {
  // Binary-exact timestamps and latency put targets exactly on the bounds of
  // both predicates: t_recv == t_send + l_min satisfies Eq. 1, and
  // t_recv == t_send violates it without being reversed.  Both scanners and
  // the oracle must draw both lines at the same place, p2p and logical alike.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 2), {0.125, 0.25, 0.5}, "bounds");
  trace.events(0).push_back(make_event(EventType::Send, 1.0, 0, 1));
  trace.events(0).push_back(make_event(EventType::Send, 2.0, 1, 1));
  trace.events(1).push_back(make_event(EventType::Recv, 1.5, 0, 0));  // == send + l_min
  trace.events(1).push_back(make_event(EventType::Recv, 2.0, 1, 0));  // == send
  // Barrier edges run from each begin to the other rank's end: 3.0 -> 3.5
  // sits on the Eq. 1 bound, 3.5 -> 3.5 on the reversal bound.
  const Time begin[2] = {3.0, 3.5};
  for (Rank r = 0; r < 2; ++r) {
    Event b = make_event(EventType::CollBegin, begin[r]);
    b.coll = CollectiveKind::Barrier;
    b.coll_id = 0;
    Event e = make_event(EventType::CollEnd, 3.5);
    e.coll = CollectiveKind::Barrier;
    e.coll_id = 0;
    trace.events(r).push_back(b);
    trace.events(r).push_back(e);
  }

  ClockConditionReport expected;
  expected.p2p_messages = 2;
  expected.p2p_violations = 1;
  expected.p2p_worst = 0.5;
  expected.logical_messages = 2;
  expected.logical_violations = 1;
  expected.logical_worst = 0.5;
  expected.total_events = 8;
  expected.message_events = 8;

  const auto ts = TimestampArray::from_local(trace);
  EXPECT_EQ(check_clock_condition(trace, ts), expected);
  EXPECT_EQ(verify::clock_condition_oracle(trace, ts, trace.match_messages(),
                                           derive_logical_messages(trace)),
            expected);
  std::stringstream v2;
  write_trace_v2(trace, v2);
  TraceReader reader(v2);
  EXPECT_EQ(scan_clock_condition(reader), expected);
}

TEST(ClockCondition, LogicalMessagesChecked) {
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 2), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  for (Rank r = 0; r < 2; ++r) {
    Event b = make_event(EventType::CollBegin, r == 0 ? 1.0 : 0.9);
    b.coll = CollectiveKind::Barrier;
    b.coll_id = 0;
    Event e = make_event(EventType::CollEnd, r == 0 ? 1.1 : 0.95);
    e.coll = CollectiveKind::Barrier;
    e.coll_id = 0;
    trace.events(r).push_back(b);
    trace.events(r).push_back(e);
  }
  const auto rep = check_clock_condition(trace, TimestampArray::from_local(trace));
  EXPECT_EQ(rep.logical_messages, 2u);
  // rank1's end (0.95) before rank0's begin (1.0): reversed.
  EXPECT_EQ(rep.logical_reversed, 1u);
  EXPECT_EQ(rep.logical_violations, 1u);
  EXPECT_DOUBLE_EQ(rep.logical_reversed_pct(), 50.0);
  EXPECT_DOUBLE_EQ(rep.combined_reversed_pct(), 50.0);
}

TEST(ClockCondition, ScanOverloadMatchesMessageListPath) {
  // The single-pass scan over an already-built ReplaySchedule's CSR edges,
  // and the convenience overload that builds the schedule itself, must
  // reproduce the message-list oracle field for field — p2p and logical
  // alike.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 2), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  trace.events(0).push_back(make_event(EventType::Send, 1.0, 0, 1));
  trace.events(0).push_back(make_event(EventType::Send, 2.0, 1, 1));
  trace.events(0).push_back(make_event(EventType::Send, 3.0, 2, 1));
  trace.events(1).push_back(make_event(EventType::Recv, 1.001, 0, 0));
  trace.events(1).push_back(make_event(EventType::Recv, 2.000001, 1, 0));
  trace.events(1).push_back(make_event(EventType::Recv, 2.9, 2, 0));
  for (Rank r = 0; r < 2; ++r) {
    Event b = make_event(EventType::CollBegin, r == 0 ? 4.0 : 3.9);
    b.coll = CollectiveKind::Barrier;
    b.coll_id = 0;
    Event e = make_event(EventType::CollEnd, r == 0 ? 4.1 : 3.95);
    e.coll = CollectiveKind::Barrier;
    e.coll_id = 0;
    trace.events(r).push_back(b);
    trace.events(r).push_back(e);
  }

  const auto msgs = trace.match_messages();
  const auto logical = derive_logical_messages(trace);
  const ReplaySchedule schedule(trace, msgs, logical);
  const auto ts = TimestampArray::from_local(trace);

  const auto full = verify::clock_condition_oracle(trace, ts, msgs, logical);
  const auto scan = check_clock_condition(trace, ts, schedule);
  EXPECT_EQ(scan, full);
  EXPECT_EQ(check_clock_condition(trace, ts), full);
}

TEST(ClockCondition, RejectsTimestampsOfAnotherShape) {
  // The CSR scan reads each rank's row up to the schedule's extent; a longer
  // row must be refused, not scanned short.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 2), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  trace.events(0).push_back(make_event(EventType::Send, 1.0, 0, 1));
  trace.events(1).push_back(make_event(EventType::Recv, 1.1, 0, 0));
  Trace longer = trace;
  longer.events(0).push_back(make_event(EventType::Enter, 2.0));
  const ReplaySchedule schedule(trace, trace.match_messages(), {});
  EXPECT_THROW(check_clock_condition(trace, TimestampArray::from_local(longer), schedule),
               std::invalid_argument);
  EXPECT_THROW(check_clock_condition(trace, TimestampArray::from_local(longer)),
               std::invalid_argument);
}

TEST(ClockCondition, RejectsTimestampsWithExtraRanks) {
  // Rows for every rank of the trace plus one more: the audit refuses such an
  // array, and the scan must too instead of ignoring the extra row.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 2), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  trace.events(0).push_back(make_event(EventType::Send, 1.0, 0, 1));
  trace.events(1).push_back(make_event(EventType::Recv, 1.1, 0, 0));
  const TimestampArray local = TimestampArray::from_local(trace);
  TimestampArray wider(trace.ranks() + 1);
  for (Rank r = 0; r < trace.ranks(); ++r) wider.of_rank(r) = local.of_rank(r);
  const ReplaySchedule schedule(trace, trace.match_messages(), {});
  EXPECT_NO_THROW(check_clock_condition(trace, local, schedule));
  EXPECT_THROW(check_clock_condition(trace, wider, schedule), std::invalid_argument);
  EXPECT_THROW(check_clock_condition(trace, wider), std::invalid_argument);
}

TEST(ClockCondition, RejectsScheduleOfAnotherTrace) {
  // A schedule sized for two ranks must not be read for a third: rank_size(2)
  // would index past the schedule's rank offsets.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 2), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  trace.events(0).push_back(make_event(EventType::Send, 1.0, 0, 1));
  trace.events(1).push_back(make_event(EventType::Recv, 1.1, 0, 0));
  Trace wider(pinning::inter_node(clusters::xeon_rwth(), 3), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  wider.events(0) = trace.events(0);
  wider.events(1) = trace.events(1);
  const ReplaySchedule schedule(trace, trace.match_messages(), {});
  EXPECT_THROW(check_clock_condition(wider, TimestampArray::from_local(wider), schedule),
               std::invalid_argument);
}

TEST(ClockCondition, EmptyTraceIsClean) {
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 2), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  const auto rep = check_clock_condition(trace, TimestampArray::from_local(trace));
  EXPECT_EQ(rep.violations(), 0u);
  EXPECT_DOUBLE_EQ(rep.p2p_reversed_pct(), 0.0);
}

TEST(Deviation, PerfectClocksGiveZero) {
  const Placement pl = pinning::inter_node(clusters::xeon_rwth(), 3);
  ClockEnsemble ens(pl, timer_specs::perfect(), RngTree(1));
  IdentityCorrection id;
  const auto s = sample_deviations(ens, id, 100.0, 10.0);
  EXPECT_DOUBLE_EQ(max_abs_deviation(s), 0.0);
  EXPECT_LT(first_exceedance(s, 1e-9), 0.0);
}

TEST(Deviation, DriftingClocksDiverge) {
  const Placement pl = pinning::inter_node(clusters::xeon_rwth(), 3);
  ClockEnsemble ens(pl, timer_specs::intel_tsc(), RngTree(2));
  // Align offsets at t=0 exactly, then watch drift take over.
  std::vector<Duration> offsets;
  for (Rank r = 0; r < 3; ++r) {
    offsets.push_back(ens.clock(0).local_time(0.0) - ens.clock(r).local_time(0.0));
  }
  OffsetAlignment align(offsets);
  const auto s = sample_deviations(ens, align, 3600.0, 60.0);
  EXPECT_LT(std::abs(s.per_rank[1].front()), 1e-9);  // aligned at start
  EXPECT_GT(max_abs_deviation(s), 10 * units::us);   // drift dominates by the end
  EXPECT_GE(first_exceedance(s, 4.29 * units::us), 0.0);
}

TEST(Deviation, SeriesShapes) {
  const Placement pl = pinning::inter_node(clusters::xeon_rwth(), 2);
  ClockEnsemble ens(pl, timer_specs::perfect(), RngTree(1));
  IdentityCorrection id;
  const auto s = sample_deviations(ens, id, 10.0, 1.0);
  EXPECT_EQ(s.at.size(), 11u);
  EXPECT_EQ(s.per_rank.size(), 2u);
  EXPECT_EQ(s.per_rank[0].size(), 11u);
  const auto stats = deviation_stats(s);
  EXPECT_EQ(stats.size(), 2u);
  EXPECT_DOUBLE_EQ(stats[1].mean(), 0.0);
}

TEST(Deviation, MeasuredSamplingShowsReadNoise) {
  const Placement pl = pinning::inter_core(clusters::xeon_rwth(), 2);
  IdentityCorrection id;
  // Exact sampling of same-chip clocks: constant offset, zero swing.
  ClockEnsemble exact(pl, timer_specs::intel_tsc(), RngTree(5));
  const auto s_exact = sample_deviations(exact, id, 100.0, 1.0);
  const auto dev0 = s_exact.per_rank[1].front();
  for (Duration d : s_exact.per_rank[1]) EXPECT_NEAR(d, dev0, 1e-12);
  // Measured sampling: quantization + jitter make the series wiggle.
  ClockEnsemble noisy(pl, timer_specs::intel_tsc(), RngTree(5));
  const auto s_meas = sample_measured_deviations(noisy, id, 100.0, 1.0);
  Duration lo = kTimeInfinity, hi = -kTimeInfinity;
  for (Duration d : s_meas.per_rank[1]) {
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_GT(hi - lo, 0.0);
  EXPECT_LT(hi - lo, 1 * units::us);
}

TEST(Deviation, MeasuredMasterLaneIsZero) {
  const Placement pl = pinning::inter_node(clusters::xeon_rwth(), 2);
  ClockEnsemble ens(pl, timer_specs::intel_tsc(), RngTree(6));
  IdentityCorrection id;
  const auto s = sample_measured_deviations(ens, id, 10.0, 1.0);
  for (Duration d : s.per_rank[0]) EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(Deviation, ParameterValidation) {
  const Placement pl = pinning::inter_node(clusters::xeon_rwth(), 2);
  ClockEnsemble ens(pl, timer_specs::perfect(), RngTree(1));
  IdentityCorrection id;
  EXPECT_THROW(sample_deviations(ens, id, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(sample_deviations(ens, id, 10.0, 0.0), std::invalid_argument);
}

TEST(IntervalStats, DistortionMeasured) {
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 1), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  trace.events(0).push_back(make_event(EventType::Enter, 1.0));
  trace.events(0).push_back(make_event(EventType::Exit, 2.0));
  trace.events(0).push_back(make_event(EventType::Enter, 3.0));
  auto ref = TimestampArray::from_local(trace);
  auto cor = ref;
  cor.at({0, 1}) = 2.5;  // stretches first interval by 0.5, shrinks second
  const auto d = interval_distortion(trace, ref, cor);
  EXPECT_EQ(d.intervals, 2u);
  EXPECT_DOUBLE_EQ(d.absolute.max(), 0.5);
  EXPECT_DOUBLE_EQ(d.absolute.mean(), 0.5);
}

TEST(IntervalStats, ZeroDistortionForIdentical) {
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 1), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  trace.events(0).push_back(make_event(EventType::Enter, 1.0));
  trace.events(0).push_back(make_event(EventType::Exit, 2.0));
  auto ref = TimestampArray::from_local(trace);
  const auto d = interval_distortion(trace, ref, ref);
  EXPECT_DOUBLE_EQ(d.absolute.max(), 0.0);
}

TEST(IntervalStats, TruthErrorRemovesGlobalShift) {
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 1), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  Event a = make_event(EventType::Enter, 0.0);
  a.true_ts = 1.0;
  a.local_ts = 6.0;  // constant +5 shift
  Event b = make_event(EventType::Exit, 0.0);
  b.true_ts = 2.0;
  b.local_ts = 7.0;
  trace.events(0).push_back(a);
  trace.events(0).push_back(b);
  const auto err = truth_error(trace, TimestampArray::from_local(trace));
  EXPECT_NEAR(err.max(), 0.0, 1e-12);  // pure shift: no error after alignment
}

TEST(OmpSemantics, CleanRegionPasses) {
  Trace trace(Placement({{0, 0, 0}}), {1e-7, 2e-7, 1e-6}, "test");
  auto ev = [&](EventType ty, ThreadId th, Time t) {
    Event e;
    e.type = ty;
    e.thread = th;
    e.local_ts = e.true_ts = t;
    e.omp_instance = 0;
    trace.events(0).push_back(e);
  };
  ev(EventType::Fork, 0, 1.0);
  ev(EventType::Enter, 0, 1.1);
  ev(EventType::Enter, 1, 1.1);
  ev(EventType::BarrierEnter, 0, 2.0);
  ev(EventType::BarrierEnter, 1, 2.1);
  ev(EventType::BarrierExit, 0, 2.2);
  ev(EventType::BarrierExit, 1, 2.2);
  ev(EventType::Join, 0, 3.0);
  const auto rep = check_omp_semantics(trace, TimestampArray::from_local(trace));
  EXPECT_EQ(rep.regions, 1u);
  EXPECT_EQ(rep.with_any, 0u);
}

TEST(OmpSemantics, DetectsEachViolationKind) {
  Trace trace(Placement({{0, 0, 0}}), {1e-7, 2e-7, 1e-6}, "test");
  auto ev = [&](EventType ty, ThreadId th, Time t, std::int32_t inst) {
    Event e;
    e.type = ty;
    e.thread = th;
    e.local_ts = e.true_ts = t;
    e.omp_instance = inst;
    trace.events(0).push_back(e);
  };
  // Instance 0: entry violation (a thread event precedes the fork).
  ev(EventType::Enter, 1, 0.9, 0);
  ev(EventType::Fork, 0, 1.0, 0);
  ev(EventType::Join, 0, 2.0, 0);
  // Instance 1: exit violation (join before a thread's last event).
  ev(EventType::Fork, 0, 3.0, 1);
  ev(EventType::Join, 0, 4.0, 1);
  ev(EventType::Exit, 1, 4.1, 1);
  // Instance 2: barrier violation (exit before everyone entered).
  ev(EventType::Fork, 0, 5.0, 2);
  ev(EventType::BarrierEnter, 0, 5.5, 2);
  ev(EventType::BarrierExit, 0, 5.6, 2);
  ev(EventType::BarrierEnter, 1, 5.7, 2);  // enters after 0 already left
  ev(EventType::BarrierExit, 1, 5.8, 2);
  ev(EventType::Join, 0, 6.0, 2);

  // Sort by time as the tracer would.
  auto& v = trace.events(0);
  std::stable_sort(v.begin(), v.end(),
                   [](const Event& x, const Event& y) { return x.true_ts < y.true_ts; });

  const auto rep = check_omp_semantics(trace, TimestampArray::from_local(trace));
  EXPECT_EQ(rep.regions, 3u);
  EXPECT_EQ(rep.with_entry, 1u);
  EXPECT_EQ(rep.with_exit, 1u);
  EXPECT_EQ(rep.with_barrier, 1u);
  EXPECT_EQ(rep.with_any, 3u);
  EXPECT_DOUBLE_EQ(rep.any_pct(), 100.0);
  EXPECT_NEAR(rep.entry_pct(), 100.0 / 3.0, 1e-9);
}

TEST(OmpSemantics, EventsWithoutInstanceIgnored) {
  Trace trace(Placement({{0, 0, 0}}), {1e-7, 2e-7, 1e-6}, "test");
  Event e;
  e.type = EventType::Enter;
  e.omp_instance = -1;
  trace.events(0).push_back(e);
  const auto rep = check_omp_semantics(trace, TimestampArray::from_local(trace));
  EXPECT_EQ(rep.regions, 0u);
}

}  // namespace
}  // namespace chronosync
