// Differential cross-checks: a healthy simulated run must come back clean,
// and a seeded divergence in a contracted-identical pair must be caught.
#include "verify/differential.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "ompsim/omp_bench.hpp"
#include "trace/logical_messages.hpp"
#include "workload/sweep.hpp"

namespace chronosync {
namespace {

AppRunResult small_fixture(std::uint64_t seed = 42) {
  SweepConfig cfg;
  cfg.rounds = 60;
  cfg.gap_mean = 3.0;  // long gaps: drift accumulates, Eq. 1 violations appear
  cfg.collective_every = 20;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::intel_tsc();
  job.seed = seed;
  return run_sweep(cfg, std::move(job));
}

TEST(Differential, RunAllMethodsIncludesClcContractPair) {
  const AppRunResult res = small_fixture();
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);
  const auto outputs = verify::run_all_methods(res.trace, res.offsets, msgs, schedule);

  bool driver = false, oracle = false;
  for (const auto& m : outputs) {
    if (m.name == "interpolation+clc") driver = m.restores_clock_condition;
    if (m.name == "interpolation+clc-replay") oracle = m.restores_clock_condition;
    ASSERT_EQ(m.ts.ranks(), res.trace.ranks()) << m.name;
  }
  EXPECT_TRUE(driver);
  EXPECT_TRUE(oracle);
  EXPECT_GE(outputs.size(), 8u);  // raw + 4 probe-based + 3 estimators + 2 CLC
}

TEST(Differential, MethodVocabularyMatchesEmittedMethods) {
  // The closed vocabulary drives scenario expect.accuracy validation and the
  // chronocheck --method dispatcher; every emitted method must be in it, and
  // every probe-era name in it must actually be emitted on a probe fixture.
  const AppRunResult res = small_fixture();
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);
  const auto outputs = verify::run_all_methods(res.trace, res.offsets, msgs, schedule);
  const auto& known = verify::all_method_names();
  for (const auto& m : outputs) {
    EXPECT_NE(std::find(known.begin(), known.end(), m.name), known.end())
        << m.name << " missing from all_method_names()";
  }
  for (const auto& name : known) {
    const auto it = std::find_if(outputs.begin(), outputs.end(),
                                 [&](const auto& m) { return m.name == name; });
    EXPECT_NE(it, outputs.end()) << name << " not emitted by run_all_methods";
  }
  EXPECT_NE(std::find(known.begin(), known.end(), "kalman-drift"), known.end());
}

TEST(Differential, GroundTruthAccuracyRanksMethods) {
  // Mid-run probe batches matter here: with only the endpoint batches the
  // filter has two knots and degenerates to exactly Eq. 3's line.
  SweepConfig cfg;
  cfg.rounds = 60;
  cfg.gap_mean = 3.0;
  cfg.collective_every = 20;
  cfg.probe_every = 15;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::intel_tsc();
  job.seed = 42;
  const AppRunResult res = run_sweep(cfg, std::move(job));
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);
  const auto outputs = verify::run_all_methods(res.trace, res.offsets, msgs, schedule);
  const auto accuracy = verify::ground_truth_accuracy(res.trace, outputs);
  ASSERT_EQ(accuracy.size(), outputs.size());

  auto find = [&](const char* name) {
    const auto it = std::find_if(accuracy.begin(), accuracy.end(),
                                 [&](const auto& a) { return a.name == name; });
    EXPECT_NE(it, accuracy.end()) << name;
    return *it;
  };
  const auto raw = find("raw");
  const auto linear = find("linear-interpolation");
  const auto kalman = find("kalman-drift");
  for (const auto& a : accuracy) {
    EXPECT_GT(a.events, 0u) << a.name;
    EXPECT_TRUE(std::isfinite(a.rms_error)) << a.name;
    EXPECT_GE(a.max_abs_error, a.rms_error) << a.name;
  }
  // Any drift model beats no correction; on the wandering TSC fixture the
  // model-based filter beats the single mean-drift line too.
  EXPECT_LT(linear.rms_error, raw.rms_error);
  EXPECT_LT(kalman.rms_error, linear.rms_error);
}

TEST(Differential, OmpClcCrossCheckIsCleanOnBenchFixture) {
  OmpBenchConfig cfg;
  cfg.threads = 6;
  cfg.regions = 120;
  cfg.seed = 42;
  const OmpBenchResult res = run_omp_benchmark(cfg);
  const Placement pl = omp_thread_placement(cfg.node, cfg.threads);
  std::vector<std::string> failures;
  const std::size_t comparisons = verify::cross_check_omp_clc(res.trace, pl, failures);
  EXPECT_GT(comparisons, 0u);
  EXPECT_TRUE(failures.empty()) << failures.front();
}

TEST(Differential, HealthyFixtureIsClean) {
  const AppRunResult res = small_fixture();
  const auto report = verify::run_differential_suite(res.trace, res.offsets);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_FALSE(report.pairs.empty());
}

TEST(Differential, SeededDivergenceInContractPairIsCaught) {
  const AppRunResult res = small_fixture();
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);
  auto outputs = verify::run_all_methods(res.trace, res.offsets, msgs, schedule);

  for (auto& m : outputs) {
    if (m.name != "interpolation+clc-replay") continue;
    for (Rank r = 0; r < m.ts.ranks(); ++r) {
      if (!m.ts.of_rank(r).empty()) {
        m.ts.of_rank(r).front() += 1e-3;  // simulate a miscompiled driver
        break;
      }
    }
  }
  const auto report = verify::compare_methods(res.trace, outputs);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures.front().find("clc"), std::string::npos)
      << report.failures.front();
}

TEST(Differential, ScannersAgreeOnFixture) {
  const AppRunResult res = small_fixture();
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);
  std::vector<std::string> failures;
  const std::size_t comparisons = verify::cross_check_scans(res.trace, schedule, failures);
  EXPECT_EQ(comparisons, 3u);
  EXPECT_TRUE(failures.empty()) << failures.front();
}

}  // namespace
}  // namespace chronosync
