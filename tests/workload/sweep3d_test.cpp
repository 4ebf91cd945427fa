#include "workload/sweep3d.hpp"

#include <gtest/gtest.h>

#include "analysis/clock_condition.hpp"
#include "sync/clc.hpp"
#include "sync/interpolation.hpp"
#include "verify/clock_condition_oracle.hpp"

namespace chronosync {
namespace {

JobConfig grid_job(int ranks, TimerSpec timer = timer_specs::perfect()) {
  JobConfig cfg;
  Rng rng(23);
  cfg.placement = pinning::scheduler_default(clusters::xeon_rwth(), ranks, rng);
  cfg.timer = std::move(timer);
  cfg.seed = 42;
  return cfg;
}

Sweep3dConfig tiny() {
  Sweep3dConfig cfg;
  cfg.px = 4;
  cfg.py = 4;
  cfg.iterations = 3;
  cfg.angles_per_block = 4;
  cfg.block_compute = 100 * units::us;
  return cfg;
}

TEST(Sweep3d, CompletesAndMatches) {
  auto res = run_sweep3d(tiny(), grid_job(16));
  EXPECT_GT(res.trace.match_messages().size(), 0u);
  EXPECT_EQ(res.trace.collect_collectives().size(), 3u);
  EXPECT_NO_THROW(res.trace.validate());
  for (Rank r = 0; r < 16; ++r) EXPECT_EQ(res.offsets.of(r).size(), 2u);
}

TEST(Sweep3d, WavefrontOrderInGroundTruth) {
  auto res = run_sweep3d(tiny(), grid_job(16));
  for (const auto& m : res.trace.match_messages()) {
    EXPECT_GE(res.trace.at(m.recv).true_ts,
              res.trace.at(m.send).true_ts +
                  res.trace.min_latency(m.send.proc, m.recv.proc) - 1e-12);
  }
}

TEST(Sweep3d, CornerRanksSendLessThanInterior) {
  auto res = run_sweep3d(tiny(), grid_job(16));
  std::vector<std::size_t> sends(16, 0);
  for (const auto& m : res.trace.match_messages()) {
    ++sends[static_cast<std::size_t>(m.send.proc)];
  }
  // Interior rank 5 = (1,1) forwards in every octant; corner rank 0 does not.
  EXPECT_GT(sends[5], sends[0]);
}

TEST(Sweep3d, GridMismatchRejected) {
  EXPECT_THROW(run_sweep3d(tiny(), grid_job(8)), std::invalid_argument);
}

TEST(Sweep3d, ClcRepairsPipelineChains) {
  // Drifting clocks on a deeply pipelined pattern: the CLC must repair the
  // whole chain without breaking the wavefront order.
  auto res = run_sweep3d(tiny(), grid_job(16, timer_specs::intel_tsc()));
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);
  const auto input =
      apply_correction(res.trace, LinearInterpolation::from_store(res.offsets));
  const ClcResult clc = controlled_logical_clock(res.trace, schedule, input);
  EXPECT_EQ(
      verify::clock_condition_oracle(res.trace, clc.corrected, msgs, logical).violations(),
      0u);
}

TEST(Sweep3d, DeterministicAcrossRuns) {
  auto a = run_sweep3d(tiny(), grid_job(16, timer_specs::intel_tsc()));
  auto b = run_sweep3d(tiny(), grid_job(16, timer_specs::intel_tsc()));
  ASSERT_EQ(a.trace.total_events(), b.trace.total_events());
  for (Rank r = 0; r < 16; ++r) {
    for (std::size_t i = 0; i < a.trace.events(r).size(); ++i) {
      EXPECT_DOUBLE_EQ(a.trace.events(r)[i].local_ts, b.trace.events(r)[i].local_ts);
    }
  }
}

}  // namespace
}  // namespace chronosync
