// Property: the windowed streaming CLC may DIVERGE from the in-memory CLC
// when its backward-amortization window is too small (ramp_clamped > 0 — the
// clamped ramps are steeper than the in-memory ones), but its output must
// still be a *valid correction*: finite timestamps, rank-local order
// preserved, and Eq. 1 exactly satisfied (zero slack).  Bit-identity is a
// luxury; the invariants are the contract.  Horizon drops are excluded —
// dropping a constraint edge genuinely abandons the Eq. 1 guarantee for that
// edge, so the property quantifies over window sizes with an ample horizon.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/scratch_dir.hpp"
#include "sync/clc_stream.hpp"
#include "sync/replay.hpp"
#include "topology/cluster.hpp"
#include "trace/logical_messages.hpp"
#include "trace/stream_io.hpp"
#include "verify/invariants.hpp"
#include "workload/sweep.hpp"

namespace chronosync {
namespace {

Trace drifting_trace(std::uint64_t seed, int ranks, int rounds) {
  SweepConfig cfg;
  cfg.rounds = rounds;
  cfg.gap_mean = 3.0;  // long gaps: drift accumulates, Eq. 1 violations abound
  cfg.collective_every = 25;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), ranks);
  job.timer = timer_specs::intel_tsc();
  job.seed = seed;
  return run_sweep(cfg, std::move(job)).trace;
}

TEST(StreamClampProperty, ClampedRunsStillSatisfyAllInvariants) {
  // Windows far below the fixture's multi-second amortization ramps force
  // clamping; every clamped run must still audit clean at zero slack.
  const std::vector<Duration> windows = {1e-4, 1e-2, 1.0};
  int clamped_runs = 0;
  for (const std::uint64_t seed : {11ull, 29ull}) {
    const Trace trace = drifting_trace(seed, 4, 120);
    const auto messages = trace.match_messages();
    const auto logical = derive_logical_messages(trace);
    const ReplaySchedule schedule(trace, messages, logical);
    const verify::InvariantChecker checker(trace, schedule, {});

    const ScratchDir scratch(testing::TempDir());
    const std::string in_path = scratch.file("clamp_in.v2");
    write_trace_v2_file(trace, in_path);

    for (const Duration window : windows) {
      StreamClcOptions opt;
      opt.backward_window = window;
      opt.horizon = 1e6;  // never drop an edge: Eq. 1 must stay guaranteed
      opt.emit_batch = 64;
      const std::string out_path = in_path + "." + std::to_string(window) + ".out";
      const StreamClcStats stats = clc_stream_file(in_path, out_path, opt);

      EXPECT_EQ(stats.horizon_dropped, 0u);
      EXPECT_EQ(stats.forced, 0u);
      EXPECT_GT(stats.violations_repaired, 0u) << "fixture has nothing to repair";
      if (stats.ramp_clamped > 0) ++clamped_runs;

      const Trace corrected = read_trace_v2_file(out_path);
      const verify::VerifyReport report =
          checker.check(TimestampArray::from_local(corrected));
      EXPECT_TRUE(report.ok())
          << "window " << window << " (ramp_clamped=" << stats.ramp_clamped
          << "):\n" << report.summary();
    }
  }
  // The property is vacuous unless small windows actually clamped.
  EXPECT_GE(clamped_runs, 2);
}

}  // namespace
}  // namespace chronosync
