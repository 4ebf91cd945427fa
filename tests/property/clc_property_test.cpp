// Property suite: CLC invariants over a sweep of seeds, rank counts, and
// timer technologies.  For every configuration the algorithm must
//   1. remove every clock-condition violation (p2p and collective),
//   2. never move an event backwards relative to its input timestamp,
//   3. keep per-process timestamps monotone,
//   4. agree bit-exactly with the replay-order oracle, across the option grid,
//   5. leave violation-free traces untouched.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>

#include "analysis/clock_condition.hpp"
#include "sync/clc.hpp"
#include "sync/interpolation.hpp"
#include "verify/clc_oracle.hpp"
#include "verify/clock_condition_oracle.hpp"
#include "workload/sweep.hpp"

namespace chronosync {
namespace {

enum class TimerChoice { Tsc, Gettimeofday, MpiWtime };

TimerSpec make_timer(TimerChoice c) {
  switch (c) {
    case TimerChoice::Tsc: return timer_specs::intel_tsc();
    case TimerChoice::Gettimeofday: return timer_specs::gettimeofday_ntp();
    case TimerChoice::MpiWtime: return timer_specs::mpi_wtime();
  }
  return timer_specs::perfect();
}

using ClcParam = std::tuple<std::uint64_t /*seed*/, int /*ranks*/, TimerChoice>;

class ClcProperty : public testing::TestWithParam<ClcParam> {
 protected:
  AppRunResult run() const {
    const auto [seed, ranks, timer] = GetParam();
    SweepConfig cfg;
    cfg.rounds = 150;
    cfg.gap_mean = 3.0;
    cfg.collective_every = 25;
    JobConfig job;
    job.placement = pinning::inter_node(clusters::xeon_rwth(), ranks);
    job.timer = make_timer(timer);
    job.seed = seed;
    return run_sweep(cfg, std::move(job));
  }
};

TEST_P(ClcProperty, RepairsEverythingWithoutRegression) {
  AppRunResult res = run();
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);
  const auto input =
      apply_correction(res.trace, LinearInterpolation::from_store(res.offsets));

  const ClcResult clc = controlled_logical_clock(res.trace, schedule, input);

  // (1) no violations remain
  const auto rep = verify::clock_condition_oracle(res.trace, clc.corrected, msgs, logical);
  EXPECT_EQ(rep.violations(), 0u);

  for (Rank r = 0; r < res.trace.ranks(); ++r) {
    const auto& in = input.of_rank(r);
    const auto& out = clc.corrected.of_rank(r);
    for (std::size_t i = 0; i < in.size(); ++i) {
      // (2) only forward moves
      EXPECT_GE(out[i], in[i] - 1e-12) << "rank " << r << " idx " << i;
      // (3) monotone per process
      if (i > 0) {
        EXPECT_GE(out[i], out[i - 1]) << "rank " << r << " idx " << i;
      }
    }
  }
}

TEST_P(ClcProperty, ParallelMatchesSequential) {
  AppRunResult res = run();
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);
  const auto input =
      apply_correction(res.trace, LinearInterpolation::from_store(res.offsets));

  // The historical name: the rank-drain driver against the replay-order
  // oracle, over the option grid.  The sweep's barriers (collective_every)
  // put logical edges into every trace.
  ASSERT_FALSE(logical.empty());
  for (const double decay : {0.0, 0.05, 0.5}) {
    for (const bool backward : {true, false}) {
      ClcOptions opt;
      opt.forward_decay = decay;
      opt.backward_amortization = backward;
      const std::string what =
          "decay " + std::to_string(decay) + " backward " + std::to_string(backward);
      const ClcResult clc = controlled_logical_clock(res.trace, schedule, input, opt);
      const ClcResult oracle = verify::replay_order_clc(res.trace, schedule, input, opt);
      EXPECT_EQ(clc.violations_repaired, oracle.violations_repaired) << what;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(clc.max_jump),
                std::bit_cast<std::uint64_t>(oracle.max_jump))
          << what;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(clc.total_jump),
                std::bit_cast<std::uint64_t>(oracle.total_jump))
          << what;
      for (Rank r = 0; r < res.trace.ranks(); ++r) {
        ASSERT_TRUE(clc.corrected.of_rank(r) == oracle.corrected.of_rank(r))
            << what << " rank " << r;
      }
    }
  }
}

TEST_P(ClcProperty, GroundTruthIsFixedPoint) {
  AppRunResult res = run();
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);
  const auto truth = TimestampArray::from_truth(res.trace);

  // (5) the causal ground truth has no violations, so CLC must be identity.
  const ClcResult clc = controlled_logical_clock(res.trace, schedule, truth);
  EXPECT_EQ(clc.violations_repaired, 0u);
  for (Rank r = 0; r < res.trace.ranks(); ++r) {
    for (std::uint32_t i = 0; i < res.trace.events(r).size(); ++i) {
      ASSERT_DOUBLE_EQ(clc.corrected.at({r, i}), truth.at({r, i}));
    }
  }
}

TEST_P(ClcProperty, BackwardAmortizationNeverReintroducesViolations) {
  // The pre-jump linear ramp redistributes each jump over earlier events.
  // Whatever slope is chosen, it must never (a) recreate a clock-condition
  // violation the forward pass just repaired, nor (b) invert the local order
  // of any process — across random traces, seeds, and timer technologies.
  AppRunResult res = run();
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);
  const auto input =
      apply_correction(res.trace, LinearInterpolation::from_store(res.offsets));

  for (const double slope : {0.01, 0.05, 0.5}) {
    ClcOptions opt;
    opt.backward_amortization = true;
    opt.backward_slope = slope;
    const ClcResult clc = controlled_logical_clock(res.trace, schedule, input, opt);

    const auto rep = verify::clock_condition_oracle(res.trace, clc.corrected, msgs, logical);
    EXPECT_EQ(rep.violations(), 0u) << "slope=" << slope;

    for (Rank r = 0; r < res.trace.ranks(); ++r) {
      const auto& out = clc.corrected.of_rank(r);
      for (std::size_t i = 1; i < out.size(); ++i) {
        ASSERT_GE(out[i], out[i - 1])
            << "slope=" << slope << " rank=" << r << " idx=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClcProperty,
    testing::Combine(testing::Values<std::uint64_t>(1, 2, 3),
                     testing::Values(2, 5, 8),
                     testing::Values(TimerChoice::Tsc, TimerChoice::Gettimeofday,
                                     TimerChoice::MpiWtime)));

}  // namespace
}  // namespace chronosync
