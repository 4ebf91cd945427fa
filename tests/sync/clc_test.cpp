#include "sync/clc.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "../testutil/random_collectives.hpp"
#include "analysis/clock_condition.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "sync/logical_clock.hpp"
#include "topology/cluster.hpp"
#include "trace/logical_messages.hpp"
#include "verify/clc_oracle.hpp"
#include "verify/csr_schedule.hpp"
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

/// Two ranks; message 0->1 whose recv timestamp violates the clock condition.
struct ViolatedFixture {
  Trace trace{pinning::inter_node(clusters::xeon_rwth(), 2),
              {0.47e-6, 0.86e-6, 4.29e-6},
              "test"};
  ViolatedFixture() {
    trace.events(0).push_back(make_event(EventType::Enter, 1.0));
    trace.events(0).push_back(make_event(EventType::Send, 2.0, 0, 1));
    trace.events(0).push_back(make_event(EventType::Exit, 3.0));
    // Recv at 1.9999: *before* the send -- a reversed message.
    trace.events(1).push_back(make_event(EventType::Enter, 1.0));
    trace.events(1).push_back(make_event(EventType::Recv, 1.9999, 0, 0));
    trace.events(1).push_back(make_event(EventType::Exit, 2.5));
    trace.events(1).push_back(make_event(EventType::Enter, 2.6));
  }
};

TEST(Clc, RepairsViolation) {
  ViolatedFixture fx;
  const ReplaySchedule s(fx.trace, fx.trace.match_messages(), {});
  const auto input = TimestampArray::from_local(fx.trace);
  const ClcResult res = controlled_logical_clock(fx.trace, s, input);

  EXPECT_EQ(res.violations_repaired, 1u);
  EXPECT_GT(res.max_jump, 0.0);
  // Clock condition restored.
  EXPECT_GE(res.corrected.at({1, 1}), res.corrected.at({0, 1}) + 4.29e-6 - 1e-15);
  // A clean report afterwards.
  const auto rep = check_clock_condition(fx.trace, res.corrected);
  EXPECT_EQ(rep.violations(), 0u);
}

TEST(Clc, PreservesMonotonicityPerProcess) {
  ViolatedFixture fx;
  const ReplaySchedule s(fx.trace, fx.trace.match_messages(), {});
  const ClcResult res =
      controlled_logical_clock(fx.trace, s, TimestampArray::from_local(fx.trace));
  for (Rank r = 0; r < 2; ++r) {
    const auto& v = res.corrected.of_rank(r);
    for (std::size_t i = 1; i < v.size(); ++i) {
      EXPECT_GE(v[i], v[i - 1]) << "rank " << r << " idx " << i;
    }
  }
}

TEST(Clc, CleanTraceIsUntouched) {
  ViolatedFixture fx;
  fx.trace.events(1)[1].local_ts = 2.1;  // now consistent
  const ReplaySchedule s(fx.trace, fx.trace.match_messages(), {});
  const auto input = TimestampArray::from_local(fx.trace);
  const ClcResult res = controlled_logical_clock(fx.trace, s, input);
  EXPECT_EQ(res.violations_repaired, 0u);
  for (Rank r = 0; r < 2; ++r) {
    for (std::uint32_t i = 0; i < fx.trace.events(r).size(); ++i) {
      EXPECT_DOUBLE_EQ(res.corrected.at({r, i}), input.at({r, i}));
    }
  }
}

TEST(Clc, ForwardAmortizationPreservesIntervals) {
  ViolatedFixture fx;
  const ReplaySchedule s(fx.trace, fx.trace.match_messages(), {});
  ClcOptions opt;
  opt.forward_decay = 0.0;  // pure interval preservation after the jump
  opt.backward_amortization = false;
  const auto input = TimestampArray::from_local(fx.trace);
  const ClcResult res = controlled_logical_clock(fx.trace, s, input, opt);
  // The interval between recv and its successors must be preserved exactly.
  const Duration want = input.at({1, 2}) - input.at({1, 1});
  const Duration got = res.corrected.at({1, 2}) - res.corrected.at({1, 1});
  EXPECT_NEAR(got, want, 1e-12);
}

TEST(Clc, ForwardDecayReturnsTowardOriginal) {
  ViolatedFixture fx;
  // Move the later events far out so the correction has room to decay.
  fx.trace.events(1)[2].local_ts = 1000.0;
  fx.trace.events(1)[3].local_ts = 2000.0;
  const ReplaySchedule s(fx.trace, fx.trace.match_messages(), {});
  ClcOptions opt;
  opt.forward_decay = 0.01;
  opt.backward_amortization = false;
  const ClcResult res =
      controlled_logical_clock(fx.trace, s, TimestampArray::from_local(fx.trace), opt);
  // By t=1000 the (microsecond-scale) correction has fully decayed.
  EXPECT_DOUBLE_EQ(res.corrected.at({1, 2}), 1000.0);
  EXPECT_DOUBLE_EQ(res.corrected.at({1, 3}), 2000.0);
}

TEST(Clc, BackwardAmortizationSmoothsPreJumpEvents) {
  ViolatedFixture fx;
  // Put a local event just before the violated recv.
  fx.trace.events(1)[0].local_ts = fx.trace.events(1)[0].true_ts = 1.99985;
  const ReplaySchedule s(fx.trace, fx.trace.match_messages(), {});
  const auto input = TimestampArray::from_local(fx.trace);

  ClcOptions without;
  without.backward_amortization = false;
  ClcOptions with;
  with.backward_amortization = true;
  const ClcResult r0 = controlled_logical_clock(fx.trace, s, input, without);
  const ClcResult r1 = controlled_logical_clock(fx.trace, s, input, with);

  // Without: the Enter stays; with: it is pulled toward the jump.
  EXPECT_DOUBLE_EQ(r0.corrected.at({1, 0}), 1.99985);
  EXPECT_GT(r1.corrected.at({1, 0}), 1.99985);
  // Still monotone and below the recv.
  EXPECT_LE(r1.corrected.at({1, 0}), r1.corrected.at({1, 1}));
}

TEST(Clc, BackwardAmortizationNeverBreaksSends) {
  // The pre-jump ramp must not push a send beyond recv - l_min.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 3), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  // rank1: Send to rank2 at 1.0, then violated Recv from rank0.
  trace.events(0).push_back(make_event(EventType::Send, 1.00005, 0, 1));
  trace.events(1).push_back(make_event(EventType::Send, 1.0, 1, 2));
  trace.events(1).push_back(make_event(EventType::Recv, 1.00001, 0, 0));  // violated
  trace.events(2).push_back(make_event(EventType::Recv, 1.00002, 1, 1));
  const auto msgs = trace.match_messages();
  const ReplaySchedule s(trace, msgs, {});
  const ClcResult res =
      controlled_logical_clock(trace, s, TimestampArray::from_local(trace));
  const auto rep = verify::clock_condition_oracle(trace, res.corrected, msgs, {});
  EXPECT_EQ(rep.violations(), 0u);
}

TEST(Clc, HandlesCollectiveLogicalMessages) {
  // Barrier whose end on rank 1 is measured before rank 0 entered.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 2), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  for (Rank r = 0; r < 2; ++r) {
    Event b = make_event(EventType::CollBegin, r == 0 ? 1.0 : 0.9);
    b.coll = CollectiveKind::Barrier;
    b.coll_id = 0;
    Event e = make_event(EventType::CollEnd, r == 0 ? 1.1 : 0.95);  // rank1 too early
    e.coll = CollectiveKind::Barrier;
    e.coll_id = 0;
    trace.events(r).push_back(b);
    trace.events(r).push_back(e);
  }
  const auto logical = derive_logical_messages(trace);
  const ReplaySchedule s(trace, {}, logical);
  const ClcResult res =
      controlled_logical_clock(trace, s, TimestampArray::from_local(trace));
  EXPECT_GE(res.violations_repaired, 1u);
  const auto rep = verify::clock_condition_oracle(trace, res.corrected, {}, logical);
  EXPECT_EQ(rep.logical_violations, 0u);
}

TEST(Clc, ChainOfViolationsAllRepaired) {
  // A relay 0 -> 1 -> 2 -> 3 where every hop's recv is reversed.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 4), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  trace.events(0).push_back(make_event(EventType::Send, 1.0, 0, 1));
  trace.events(1).push_back(make_event(EventType::Recv, 0.9, 0, 0));
  trace.events(1).push_back(make_event(EventType::Send, 0.91, 1, 2));
  trace.events(2).push_back(make_event(EventType::Recv, 0.8, 1, 1));
  trace.events(2).push_back(make_event(EventType::Send, 0.81, 2, 3));
  trace.events(3).push_back(make_event(EventType::Recv, 0.7, 2, 2));
  const auto msgs = trace.match_messages();
  const ReplaySchedule s(trace, msgs, {});
  const ClcResult res =
      controlled_logical_clock(trace, s, TimestampArray::from_local(trace));
  EXPECT_EQ(res.violations_repaired, 3u);
  EXPECT_EQ(verify::clock_condition_oracle(trace, res.corrected, msgs, {}).violations(), 0u);
  // The chain accumulates: each hop is at least l_min later.
  EXPECT_GE(res.corrected.at({3, 0}), 1.0 + 3 * 4.29e-6 - 1e-12);
}

TEST(Clc, StatisticsAccumulate) {
  ViolatedFixture fx;
  const ReplaySchedule s(fx.trace, fx.trace.match_messages(), {});
  const ClcResult res =
      controlled_logical_clock(fx.trace, s, TimestampArray::from_local(fx.trace));
  EXPECT_GT(res.total_jump, 0.0);
  EXPECT_GE(res.total_jump, res.max_jump);
}

TEST(Clc, OptionValidation) {
  ViolatedFixture fx;
  const ReplaySchedule s(fx.trace, fx.trace.match_messages(), {});
  const auto input = TimestampArray::from_local(fx.trace);
  ClcOptions bad;
  bad.forward_decay = 1.5;
  EXPECT_THROW(controlled_logical_clock(fx.trace, s, input, bad), std::invalid_argument);
  ClcOptions bad2;
  bad2.backward_slope = 0.0;
  EXPECT_THROW(controlled_logical_clock(fx.trace, s, input, bad2), std::invalid_argument);
  TimestampArray short_input = input;  // one timestamp fewer than the trace has events
  short_input.of_rank(1).pop_back();
  EXPECT_THROW(controlled_logical_clock(fx.trace, s, short_input), std::invalid_argument);
}

// ------------------------------------------- driver vs replay-order oracle

/// Last recorded local timestamp of a rank (keeps generated traces monotone).
Time last_ts(const Trace& trace, Rank r) {
  const auto& ev = trace.events(r);
  return ev.empty() ? 0.0 : ev.back().local_ts;
}

/// Random many-rank trace with sprinkled violations for equivalence checks;
/// `barriers` closes every round with a barrier whose ends are often stamped
/// before other ranks' begins (many-edge logical receives).
Trace random_trace(int ranks, int rounds, std::uint64_t seed, bool barriers = false) {
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), ranks),
              {0.47e-6, 0.86e-6, 4.29e-6}, "test");
  Rng rng(seed);
  std::int64_t id = 0;
  Time t = 1.0;
  for (int round = 0; round < rounds; ++round) {
    const auto shift = static_cast<Rank>(rng.uniform_int(1, ranks - 1));
    for (Rank r = 0; r < ranks; ++r) {
      const Rank to = (r + shift) % ranks;
      const Time st = t + rng.uniform(0.0, 1e-4);
      trace.events(r).push_back(make_event(EventType::Send, st, id + r, to));
    }
    for (Rank r = 0; r < ranks; ++r) {
      const Rank from = (r - shift + ranks) % ranks;
      // Around 20% of receives get a timestamp *before* the send.
      const Time base = t + rng.uniform(0.0, 1e-4);
      const Time rt = rng.bernoulli(0.2) ? base - rng.uniform(0.0, 5e-5)
                                         : base + 2e-4 + rng.uniform(0.0, 1e-4);
      trace.events(r).push_back(
          make_event(EventType::Recv, std::max(rt, last_ts(trace, r)), id + from, from));
    }
    for (Rank r = 0; barriers && r < ranks; ++r) {
      Event b = make_event(EventType::CollBegin, last_ts(trace, r) + rng.uniform(0.0, 1e-4));
      b.coll = CollectiveKind::Barrier;
      b.coll_id = round;
      Event e = b;
      e.type = EventType::CollEnd;
      e.local_ts = e.true_ts = b.local_ts + rng.uniform(0.0, 5e-5);
      trace.events(r).push_back(b);
      trace.events(r).push_back(e);
    }
    id += ranks;
    t += 1e-3;
  }
  return trace;
}

/// Driver and oracle must agree bit for bit: every timestamp and all three
/// jump statistics.
void expect_bit_identical(const ClcResult& a, const ClcResult& b, const std::string& what) {
  EXPECT_EQ(a.violations_repaired, b.violations_repaired) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.max_jump), std::bit_cast<std::uint64_t>(b.max_jump))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.total_jump),
            std::bit_cast<std::uint64_t>(b.total_jump))
      << what;
  ASSERT_EQ(a.corrected.ranks(), b.corrected.ranks()) << what;
  for (Rank r = 0; r < a.corrected.ranks(); ++r) {
    const auto& x = a.corrected.of_rank(r);
    const auto& y = b.corrected.of_rank(r);
    ASSERT_EQ(x.size(), y.size()) << what << " rank " << r;
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(x[i]), std::bit_cast<std::uint64_t>(y[i]))
          << what << " rank " << r << " idx " << i;
    }
  }
}

TEST(ParallelClc, MatchesSequentialBitExact) {
  // The historical name: today the rank-drain driver is held to the
  // replay-order oracle, on several traces and option points.  The barrier
  // traces make ranks park part-way through an event's incoming edges.
  for (const std::uint64_t seed : {99u, 2024u, 5u}) {
    Trace trace = random_trace(8, 40, seed, /*barriers=*/seed != 99u);
    const auto msgs = trace.match_messages();
    const auto logical = derive_logical_messages(trace);
    const ReplaySchedule s(trace, msgs, logical);
    const auto input = TimestampArray::from_local(trace);
    for (const double decay : {0.0, 0.05, 0.5}) {
      for (const bool backward : {true, false}) {
        ClcOptions opt;
        opt.forward_decay = decay;
        opt.backward_amortization = backward;
        expect_bit_identical(controlled_logical_clock(trace, s, input, opt),
                             verify::replay_order_clc(trace, s, input, opt),
                             "seed " + std::to_string(seed) + " decay " +
                                 std::to_string(decay) + " backward " +
                                 std::to_string(backward));
      }
    }
  }
}

TEST(Clc, ZeroRankTraceReturnsInputUnchanged) {
  // Regression: a trace with no ranks used to trip a thread-count
  // precondition; driver and oracle must be graceful no-ops.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 0),
              {0.47e-6, 0.86e-6, 4.29e-6}, "test");
  const ReplaySchedule s(trace, {}, {});
  const auto input = TimestampArray::from_local(trace);

  const ClcResult clc = controlled_logical_clock(trace, s, input);
  EXPECT_EQ(clc.violations_repaired, 0u);
  EXPECT_EQ(clc.corrected.ranks(), 0);
  expect_bit_identical(clc, verify::replay_order_clc(trace, s, input), "zero ranks");
}

TEST(Clc, EventlessTraceReturnsInputUnchanged) {
  // Ranks exist but none recorded an event: the schedule is empty and the
  // result must be the input, with zeroed statistics.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 4),
              {0.47e-6, 0.86e-6, 4.29e-6}, "test");
  const ReplaySchedule s(trace, trace.match_messages(), {});
  ASSERT_EQ(s.events(), 0u);
  const auto input = TimestampArray::from_local(trace);

  const ClcResult clc = controlled_logical_clock(trace, s, input);
  EXPECT_EQ(clc.violations_repaired, 0u);
  EXPECT_DOUBLE_EQ(clc.total_jump, 0.0);
  EXPECT_EQ(clc.corrected.ranks(), trace.ranks());
  expect_bit_identical(clc, verify::replay_order_clc(trace, s, input), "no events");
}

TEST(ParallelClc, StatisticsIndependentOfThreadCount) {
  // Aggregates are derived from the final jump[] array in global-event
  // order, so they must be bit-identical to the oracle's whatever order the
  // driver visited the events in — not merely close.
  Trace trace = random_trace(8, 50, 7);
  const auto msgs = trace.match_messages();
  const ReplaySchedule s(trace, msgs, {});
  const auto input = TimestampArray::from_local(trace);
  const ClcResult clc = controlled_logical_clock(trace, s, input);
  const ClcResult oracle = verify::replay_order_clc(trace, s, input);
  ASSERT_GT(oracle.violations_repaired, 0u);
  EXPECT_EQ(clc.violations_repaired, oracle.violations_repaired);
  EXPECT_EQ(clc.max_jump, oracle.max_jump);
  EXPECT_EQ(clc.total_jump, oracle.total_jump);
}

TEST(ParallelClc, RepairsEverything) {
  Trace trace = random_trace(6, 60, 123);
  const auto msgs = trace.match_messages();
  const ReplaySchedule s(trace, msgs, {});
  const auto input = TimestampArray::from_local(trace);
  const ClcResult res = controlled_logical_clock(trace, s, input);
  EXPECT_GT(res.violations_repaired, 0u);
  EXPECT_EQ(verify::clock_condition_oracle(trace, res.corrected, msgs, {}).violations(), 0u);
  expect_bit_identical(res, verify::replay_order_clc(trace, s, input), "repairs");
}

// ------------------------------------------------------ cyclic constraints

/// Expects std::invalid_argument whose message names rank `r`, event `i`.
template <class Fn>
void expect_cycle_error(Fn&& fn, Rank r, std::uint32_t i, const char* who) {
  try {
    fn();
    ADD_FAILURE() << who << ": a cyclic constraint graph did not throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cyclic"), std::string::npos) << who << ": " << what;
    EXPECT_NE(what.find("rank " + std::to_string(r) + " "), std::string::npos)
        << who << ": " << what;
    EXPECT_NE(what.find("event " + std::to_string(i)), std::string::npos) << who << ": " << what;
  }
}

void expect_all_reject_cycle(const Trace& trace, Rank r, std::uint32_t i) {
  const auto msgs = trace.match_messages();
  const ReplaySchedule s(trace, msgs, {});
  const auto input = TimestampArray::from_local(trace);
  expect_cycle_error([&] { controlled_logical_clock(trace, s, input); }, r, i, "driver");
  expect_cycle_error([&] { verify::replay_order_clc(trace, s, input); }, r, i, "oracle");
  expect_cycle_error([&] { lamport_clocks(trace, s); }, r, i, "lamport");
}

TEST(ClcCycle, ReceiveBeforeOwnSendOnOneRank) {
  // Rank 1 records recv(m) before the send(m) it issues to itself: the
  // receive waits on a later event of its own rank.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 2), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  trace.events(0).push_back(make_event(EventType::Enter, 1.0));
  trace.events(1).push_back(make_event(EventType::Enter, 1.0));
  trace.events(1).push_back(make_event(EventType::Recv, 2.0, 7, 1));
  trace.events(1).push_back(make_event(EventType::Send, 3.0, 7, 1));
  ASSERT_EQ(trace.match_messages().size(), 1u);
  expect_all_reject_cycle(trace, 1, 1);
}

TEST(ClcCycle, TwoRanksReceiveBeforeSending) {
  // Each rank receives the other's message before sending its own.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 3), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  trace.events(0).push_back(make_event(EventType::Enter, 0.5));
  trace.events(1).push_back(make_event(EventType::Enter, 0.5));
  trace.events(1).push_back(make_event(EventType::Recv, 1.0, 20, 2));
  trace.events(1).push_back(make_event(EventType::Send, 2.0, 10, 2));
  trace.events(2).push_back(make_event(EventType::Recv, 1.0, 10, 1));
  trace.events(2).push_back(make_event(EventType::Send, 2.0, 20, 1));
  ASSERT_EQ(trace.match_messages().size(), 2u);
  expect_all_reject_cycle(trace, 1, 1);
}

TEST(ClcCycle, BarrierEndsRecordedBeforeBegins) {
  // Ranks 1 and 2 each record their barrier end before its begin: each end
  // waits on the other rank's later begin, through a collective hub.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 3), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  trace.events(0).push_back(make_event(EventType::Enter, 0.5));
  for (Rank r = 1; r < 3; ++r) {
    trace.events(r).push_back(testutil::coll(EventType::CollEnd, CollectiveKind::Barrier, 4, 0, 1.0));
    trace.events(r).push_back(
        testutil::coll(EventType::CollBegin, CollectiveKind::Barrier, 4, 0, 2.0));
  }
  const auto logical = derive_logical_messages(trace);
  const ReplaySchedule s(trace, {}, logical);
  ASSERT_EQ(s.hubs(), 1u);
  const auto input = TimestampArray::from_local(trace);
  expect_cycle_error([&] { controlled_logical_clock(trace, s, input); }, 1, 0, "driver");
  expect_cycle_error([&] { verify::replay_order_clc(trace, s, input); }, 1, 0, "oracle");
  expect_cycle_error([&] { lamport_clocks(trace, s); }, 1, 0, "lamport");
  const verify::CsrSchedule csr(trace, {}, logical);
  expect_cycle_error([&] { verify::replay_order_clc(trace, csr, input); }, 1, 0, "csr oracle");
}

// ------------------------------------------------------------ driver work

TEST(ClcDriver, RejectsScheduleOfAnotherTrace) {
  // A schedule sized for two ranks must not be read for a third: rank_size(2)
  // would index past the schedule's rank offsets.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 2), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  trace.events(0).push_back(make_event(EventType::Send, 1.0, 5, 1));
  trace.events(1).push_back(make_event(EventType::Recv, 0.9, 5, 0));
  Trace wider(pinning::inter_node(clusters::xeon_rwth(), 3), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  wider.events(0) = trace.events(0);
  wider.events(1) = trace.events(1);
  const ReplaySchedule s(trace, trace.match_messages(), {});
  EXPECT_THROW(controlled_logical_clock(wider, s, TimestampArray::from_local(wider)),
               std::invalid_argument);
}

TEST(ClcDriver, ReversePipelineWorkStaysLinear) {
  // Rank r receives from r+1, then sends to r-1, for a few rounds: every
  // rank but the last starts blocked, and a round-robin pass over the ranks
  // would advance one rank per pass — quadratic in the rank count.  Parking
  // on the blocking rank keeps the scan linear in events + edges.
  constexpr int kRanks = 512;
  constexpr int kRounds = 3;
  Trace trace(pinning::inter_node(clusters::powerpc_marenostrum(), kRanks),
              {0.47e-6, 0.86e-6, 4.29e-6}, "test");
  auto id = [](Rank from, int round) { return std::int64_t{from} * kRounds + round; };
  for (Rank r = 0; r < kRanks; ++r) {
    for (int k = 0; k < kRounds; ++k) {
      // Receives are stamped before their sends: every hop is a violation.
      if (r + 1 < kRanks) {
        trace.events(r).push_back(make_event(EventType::Recv, k + 0.5, id(r + 1, k), r + 1));
      }
      if (r > 0) trace.events(r).push_back(make_event(EventType::Send, k + 0.6, id(r, k), r - 1));
    }
  }
  const auto msgs = trace.match_messages();
  ASSERT_EQ(msgs.size(), static_cast<std::size_t>((kRanks - 1) * kRounds));
  const ReplaySchedule s(trace, msgs, {});
  const auto input = TimestampArray::from_local(trace);

  obs::set_level(obs::Level::Metrics);
  obs::reset();
  const ClcResult clc = controlled_logical_clock(trace, s, input);
  const std::int64_t scanned = obs::counter("clc.edges_scanned").value();
  const std::int64_t parks = obs::counter("clc.rank_parks").value();
  obs::set_level(obs::Level::Off);
  obs::reset();

  const auto work = static_cast<std::int64_t>(s.events() + s.edges());
  EXPECT_GE(scanned, static_cast<std::int64_t>(s.edges()));
  EXPECT_LE(scanned, 2 * work) << "parks " << parks;
  EXPECT_GT(parks, 0);
  EXPECT_GT(clc.violations_repaired, 0u);
  expect_bit_identical(clc, verify::replay_order_clc(trace, s, input), "reverse pipeline");
}

}  // namespace
}  // namespace chronosync
