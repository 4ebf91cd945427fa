// End-to-end integration: simulate an application on drifting clocks, apply
// the paper's synchronization pipeline, and verify the paper's qualitative
// claims hold in the reproduction.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "analysis/clock_condition.hpp"
#include "common/scratch_dir.hpp"
#include "analysis/interval_stats.hpp"
#include "sync/clc.hpp"
#include "sync/clc_stream.hpp"
#include "sync/error_estimation.hpp"
#include "sync/interpolation.hpp"
#include "sync/offset_alignment.hpp"
#include "trace/stream_io.hpp"
#include "verify/clc_oracle.hpp"
#include "verify/clock_condition_oracle.hpp"
#include "workload/sweep.hpp"

namespace chronosync {
namespace {

/// A sweep run on TSC clocks across nodes, long enough for wander to bite.
AppRunResult drifting_run(std::uint64_t seed, int rounds = 400,
                          Duration gap = 2.0 /*s*/) {
  SweepConfig cfg;
  cfg.rounds = rounds;
  cfg.gap_mean = gap;
  cfg.collective_every = 50;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 8);
  job.timer = timer_specs::intel_tsc();
  job.seed = seed;
  return run_sweep(cfg, std::move(job));
}

TEST(EndToEnd, RawTimestampsAreUnusableAcrossNodes) {
  auto res = drifting_run(1);
  const auto raw = TimestampArray::from_local(res.trace);
  const auto rep = check_clock_condition(res.trace, raw);
  // Unsynchronized hardware counters start ~seconds apart: nearly everything
  // is inconsistent.
  EXPECT_GT(rep.p2p_reversed_pct(), 10.0);
}

TEST(EndToEnd, LinearInterpolationHelpsButDoesNotEliminate) {
  // The paper's core finding: linear offset interpolation removes offset and
  // mean drift (pairwise sync error drops by orders of magnitude), yet
  // clock-condition violations remain on longer runs.
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    auto res = drifting_run(seed, 500, 4.0);  // ~2000 s run
    const auto msgs = res.trace.match_messages();
    const auto raw_ts = TimestampArray::from_local(res.trace);
    const LinearInterpolation interp = LinearInterpolation::from_store(res.offsets);
    const auto fixed_ts = apply_correction(res.trace, interp);

    const auto raw_err = message_sync_error(res.trace, raw_ts, msgs);
    const auto fix_err = message_sync_error(res.trace, fixed_ts, msgs);
    // Raw TSC values start ~0.5 s apart; interpolation brings pairs to the
    // residual-wander level (tens of us).
    EXPECT_GT(raw_err.mean(), 1 * units::ms) << seed;
    EXPECT_LT(fix_err.mean(), raw_err.mean() / 100.0) << seed;

    const auto rep = verify::clock_condition_oracle(res.trace, fixed_ts, msgs,
                                                    derive_logical_messages(res.trace));
    EXPECT_GT(rep.violations(), 0u) << seed;  // but still not violation-free
  }
}

TEST(EndToEnd, ClcRemovesAllRemainingViolations) {
  auto res = drifting_run(21, 500, 4.0);
  const LinearInterpolation interp = LinearInterpolation::from_store(res.offsets);
  const auto pre = apply_correction(res.trace, interp);

  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);
  const ClcResult clc = controlled_logical_clock(res.trace, schedule, pre);

  const auto rep = verify::clock_condition_oracle(res.trace, clc.corrected, msgs, logical);
  EXPECT_EQ(rep.violations(), 0u);
  EXPECT_EQ(rep.p2p_reversed, 0u);
  EXPECT_EQ(rep.logical_reversed, 0u);
}

TEST(EndToEnd, ClcPreservesIntervalsApproximately) {
  auto res = drifting_run(31, 300, 2.0);
  const LinearInterpolation interp = LinearInterpolation::from_store(res.offsets);
  const auto pre = apply_correction(res.trace, interp);
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);
  const ClcResult clc = controlled_logical_clock(res.trace, schedule, pre);

  const auto dist = interval_distortion(res.trace, pre, clc.corrected);
  // Typical intervals are seconds; CLC corrections are microseconds.
  EXPECT_LT(dist.absolute.mean(), 50 * units::us);
}

TEST(EndToEnd, ClcImprovesAccuracyAgainstGroundTruth) {
  auto res = drifting_run(41, 300, 2.0);
  const LinearInterpolation interp = LinearInterpolation::from_store(res.offsets);
  const auto pre = apply_correction(res.trace, interp);
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);
  const ClcResult clc = controlled_logical_clock(res.trace, schedule, pre);

  // CLC must not *hurt* overall accuracy relative to its input.
  const auto pre_err = truth_error(res.trace, pre);
  const auto clc_err = truth_error(res.trace, clc.corrected);
  EXPECT_LE(clc_err.mean(), pre_err.mean() * 1.5);
}

TEST(EndToEnd, ParallelClcAgreesOnRealTrace) {
  auto res = drifting_run(51, 200, 2.0);
  const LinearInterpolation interp = LinearInterpolation::from_store(res.offsets);
  const auto pre = apply_correction(res.trace, interp);
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);

  // The historical name: the driver against the replay-order oracle on a
  // real drifting-clock trace, bit for bit.
  const ClcResult clc = controlled_logical_clock(res.trace, schedule, pre);
  const ClcResult oracle = verify::replay_order_clc(res.trace, schedule, pre);
  EXPECT_EQ(clc.violations_repaired, oracle.violations_repaired);
  EXPECT_EQ(clc.max_jump, oracle.max_jump);
  EXPECT_EQ(clc.total_jump, oracle.total_jump);
  for (Rank r = 0; r < res.trace.ranks(); ++r) {
    ASSERT_TRUE(clc.corrected.of_rank(r) == oracle.corrected.of_rank(r)) << r;
  }
}

TEST(EndToEnd, ErrorEstimationAlsoReducesSyncError) {
  auto res = drifting_run(61, 400, 1.0);
  const auto msgs = res.trace.match_messages();
  const auto raw_err =
      message_sync_error(res.trace, TimestampArray::from_local(res.trace), msgs);
  const auto corr =
      ErrorEstimationCorrection::build(res.trace, msgs, EstimationMethod::Regression);
  const auto fix_err =
      message_sync_error(res.trace, apply_correction(res.trace, corr), msgs);
  // A per-pair fitted line removes offset and mean drift from the
  // application's own messages.
  EXPECT_LT(fix_err.mean(), raw_err.mean() / 100.0);
}

TEST(EndToEnd, PiecewiseBeatsLinearWithMidRunMeasurements) {
  // Extension experiment (ref. [17]): periodic offset measurement during the
  // run lets piecewise interpolation track non-constant drift.
  SweepConfig cfg;
  cfg.rounds = 300;
  cfg.gap_mean = 4.0;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::gettimeofday_ntp();  // the nastiest drift shape
  job.seed = 71;
  Job j(std::move(job));
  OffsetStore store(j.ranks());
  j.run([&](Proc& p) -> Coro<void> {
    p.set_tracing(false);
    co_await probe_offsets(p, store, 10);
    p.set_tracing(true);
    for (int block = 0; block < 6; ++block) {
      for (int round = 0; round < cfg.rounds / 6; ++round) {
        co_await p.compute(cfg.gap_mean);
        co_await p.send((p.rank() + 1) % p.nranks(), 1, 256);
        co_await p.recv((p.rank() + p.nranks() - 1) % p.nranks(), 1);
      }
      p.set_tracing(false);
      co_await probe_offsets(p, store, 10);  // periodic mid-run measurement
      p.set_tracing(true);
    }
  });
  Trace trace = j.take_trace();

  const auto msgs = trace.match_messages();
  const LinearInterpolation lin = LinearInterpolation::from_store(store);
  const PiecewiseInterpolation pw = PiecewiseInterpolation::from_store(store);
  // Pairwise sync error isolates worker-vs-master error (truth_error would be
  // dominated by the master clock's own drift, which no correction can see).
  const auto lin_err = message_sync_error(trace, apply_correction(trace, lin), msgs);
  const auto pw_err = message_sync_error(trace, apply_correction(trace, pw), msgs);
  EXPECT_LT(pw_err.mean(), lin_err.mean());
}

TEST(EndToEnd, TraceSurvivesSerializationPipeline) {
  auto res = drifting_run(81, 50, 0.1);
  std::stringstream buf;
  write_trace_v2(res.trace, buf);
  Trace back = read_trace_v2(buf);
  const auto a = check_clock_condition(res.trace, TimestampArray::from_local(res.trace));
  const auto b = check_clock_condition(back, TimestampArray::from_local(back));
  EXPECT_EQ(a, b);
}

// The out-of-core CLC's read-ahead holds one whole chunk per rank, so its
// floor is ranks × events_per_chunk.  On 256 ranks of 16,384 events, written
// with the default chunking, that floor must stay well under the trace: a
// writer that cut one chunk per rank would put the whole trace in the
// read-ahead.  The trace is a ring: every tenth event pair is a message from
// rank r to r + 1, and one message in 16 arrives before it was sent.
TEST(EndToEnd, StreamingReadAheadStaysUnderHalfTheTraceOn256Ranks) {
  constexpr int kRanks = 256;
  constexpr std::int64_t kPerRank = 16384;
  constexpr double kStep = 1e-5;  // > inter-node l_min, so matched pairs obey Eq. 1
  const ScratchDir scratch(testing::TempDir());
  const std::string in_path = scratch.file("ring_in.cstr");
  {
    TraceMeta meta;
    meta.placement = pinning::inter_node(clusters::powerpc_marenostrum(), kRanks);
    meta.domain_min_latency = {0.47e-6, 0.86e-6, 4.29e-6};
    meta.timer_name = "ring";
    meta.regions = {"compute"};
    std::ofstream f(in_path, std::ios::binary);
    TraceWriter w(f, meta);
    for (int r = 0; r < kRanks; ++r) {
      const int prev = (r + kRanks - 1) % kRanks;
      for (std::int64_t i = 0; i < kPerRank; ++i) {
        Event e;
        e.local_ts = static_cast<double>(i) * kStep;
        if (i % 10 == 8) {
          e.type = EventType::Send;
          e.peer = (r + 1) % kRanks;
          e.msg_id = kPerRank * r + i;
        } else if (i % 10 == 9) {
          e.type = EventType::Recv;
          e.peer = prev;
          e.msg_id = kPerRank * prev + i - 1;
          if ((i / 10) % 16 == 0) e.local_ts = static_cast<double>(i - 1) * kStep - 1e-7;
        } else {
          e.type = i % 2 == 0 ? EventType::Enter : EventType::Exit;
          e.region = 0;
        }
        e.true_ts = e.local_ts;
        w.append(r, e);
      }
    }
    w.finish();
  }

  StreamClcOptions opt;
  opt.backward_window = 1e-3;  // covers the reversals' ramps; keeps retention small
  const StreamClcStats stats = clc_stream_file(in_path, scratch.file("ring_out.cstr"), opt);
  const std::uint64_t total = std::uint64_t{kRanks} * kPerRank;
  ASSERT_EQ(stats.events, total);
  EXPECT_GT(stats.violations_repaired, 0u);
  EXPECT_EQ(stats.ramp_clamped + stats.horizon_dropped + stats.forced, 0u);
  EXPECT_LT(stats.peak_resident_events, total / 2);
}

}  // namespace
}  // namespace chronosync
