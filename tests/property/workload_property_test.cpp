// Property suite: every application proxy (POP, SMG2000, random sweep) under
// every timer must produce a causally consistent ground truth, a
// deterministic trace, and a trace the CLC can repair completely.
#include <gtest/gtest.h>

#include <functional>
#include <tuple>

#include "analysis/clock_condition.hpp"
#include "sync/clc.hpp"
#include "sync/interpolation.hpp"
#include "verify/clock_condition_oracle.hpp"
#include "workload/pop.hpp"
#include "workload/smg2000.hpp"
#include "workload/sweep.hpp"

namespace chronosync {
namespace {

// The values print in the test names (GetParam()), so they stay fixed.
enum class App { Pop = 0, Smg = 1, RandomSweep = 3 };
enum class TimerChoice { Tsc, Gettimeofday };

const char* app_name(App a) {
  switch (a) {
    case App::Pop: return "pop";
    case App::Smg: return "smg2000";
    case App::RandomSweep: return "sweep";
  }
  return "?";
}

AppRunResult run_app(App app, TimerChoice timer, std::uint64_t seed) {
  JobConfig job;
  Rng pin_rng(seed ^ 0xabcdefULL);
  job.placement = pinning::scheduler_default(clusters::xeon_rwth(), 8, pin_rng);
  job.timer = timer == TimerChoice::Tsc ? timer_specs::intel_tsc()
                                        : timer_specs::gettimeofday_ntp();
  job.seed = seed;

  switch (app) {
    case App::Pop: {
      PopConfig cfg;
      cfg.px = 4;
      cfg.py = 2;
      cfg.total_iterations = 40;
      cfg.traced_begin = 10;
      cfg.traced_end = 30;
      cfg.iter_compute = 500 * units::us;
      return run_pop(cfg, std::move(job));
    }
    case App::Smg: {
      SmgConfig cfg;
      cfg.px = 4;
      cfg.py = 2;
      cfg.levels = 3;
      cfg.iterations = 3;
      cfg.pre_sleep = 1.0;
      cfg.post_sleep = 1.0;
      cfg.level_compute = 200 * units::us;
      return run_smg(cfg, std::move(job));
    }
    case App::RandomSweep: {
      SweepConfig cfg;
      cfg.rounds = 60;
      cfg.gap_mean = 500 * units::us;
      cfg.collective_every = 15;
      return run_sweep(cfg, std::move(job));
    }
  }
  throw std::logic_error("unreachable");
}

using Param = std::tuple<App, TimerChoice, std::uint64_t>;

class WorkloadProperty : public testing::TestWithParam<Param> {
 protected:
  AppRunResult run() const {
    const auto [app, timer, seed] = GetParam();
    return run_app(app, timer, seed);
  }
};

TEST_P(WorkloadProperty, GroundTruthIsCausal) {
  AppRunResult res = run();
  ASSERT_GT(res.trace.total_events(), 0u);
  for (const auto& m : res.trace.match_messages()) {
    EXPECT_GE(res.trace.at(m.recv).true_ts,
              res.trace.at(m.send).true_ts +
                  res.trace.min_latency(m.send.proc, m.recv.proc) - 1e-12);
  }
  for (const auto& lm : derive_logical_messages(res.trace)) {
    EXPECT_GE(res.trace.at(lm.recv).true_ts,
              res.trace.at(lm.send).true_ts +
                  res.trace.min_latency(lm.send.proc, lm.recv.proc) - 1e-12);
  }
}

TEST_P(WorkloadProperty, TraceInvariantsHold) {
  AppRunResult res = run();
  EXPECT_NO_THROW(res.trace.validate());
  // Offsets measured at init and finalize for every rank.
  for (Rank r = 0; r < res.trace.ranks(); ++r) {
    EXPECT_EQ(res.offsets.of(r).size(), 2u);
  }
}

TEST_P(WorkloadProperty, ClcRepairsCompletely) {
  AppRunResult res = run();
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

TEST_P(WorkloadProperty, DeterministicAcrossRuns) {
  AppRunResult a = run();
  AppRunResult b = run();
  ASSERT_EQ(a.trace.total_events(), b.trace.total_events());
  for (Rank r = 0; r < a.trace.ranks(); ++r) {
    const auto& ea = a.trace.events(r);
    const auto& eb = b.trace.events(r);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
      ASSERT_DOUBLE_EQ(ea[i].local_ts, eb[i].local_ts);
      ASSERT_EQ(ea[i].type, eb[i].type);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Apps, WorkloadProperty,
    testing::Combine(testing::Values(App::Pop, App::Smg, App::RandomSweep),
                     testing::Values(TimerChoice::Tsc, TimerChoice::Gettimeofday),
                     testing::Values<std::uint64_t>(1, 2)),
    [](const testing::TestParamInfo<Param>& tpi) {
      return std::string(app_name(std::get<0>(tpi.param))) +
             (std::get<1>(tpi.param) == TimerChoice::Tsc ? "_tsc" : "_gtod") + "_s" +
             std::to_string(std::get<2>(tpi.param));
    });

}  // namespace
}  // namespace chronosync
