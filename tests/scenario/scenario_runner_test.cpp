#include <gtest/gtest.h>

#include <string>

#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace chronosync::scenario {
namespace {

// End-to-end smoke for the scenario pipeline itself (tiny fixtures — the
// committed battery under scenarios/ covers the real matrix): outcomes carry
// the measured facts, expectations turn measurements into failures, and the
// dynamic workload composes with post-run faults.

ScenarioRunOptions temp_opts() {
  ScenarioRunOptions o;
  o.work_dir = testing::TempDir();
  return o;
}

TEST(ScenarioRunner, DriftingClocksYieldRepairsAndCleanAudit) {
  ScenarioSpec spec = parse_scenario(R"({
    "name": "smoke-drift",
    "workload": {"ranks": 4, "rounds": 60},
    "expect": {"raw_violations_min": 1, "clc_repairs_min": 1}
  })");
  const ScenarioOutcome out = run_scenario(spec, temp_opts());
  EXPECT_TRUE(out.ok()) << out.summary();
  EXPECT_GT(out.events, 0u);
  EXPECT_GE(out.raw_violations, 1u);
  EXPECT_EQ(out.raw_structural, 0u);
  EXPECT_TRUE(out.differential_clean);
  EXPECT_GE(out.clc_repairs, 1u);
  EXPECT_EQ(out.clc_audit_violations, 0u);
  EXPECT_TRUE(out.stream_identical);
}

TEST(ScenarioRunner, UnmetExpectationBecomesFailureNotThrow) {
  // Perfect clocks cannot produce violations, so demanding some must fail
  // the expectation — and only the expectation.
  ScenarioSpec spec = parse_scenario(R"({
    "name": "smoke-unmet",
    "workload": {"ranks": 4, "rounds": 40},
    "clock": {"timer": "perfect"},
    "expect": {"raw_violations_min": 1}
  })");
  const ScenarioOutcome out = run_scenario(spec, temp_opts());
  EXPECT_FALSE(out.ok());
  ASSERT_EQ(out.failures.size(), 1u);
  EXPECT_NE(out.failures[0].find("raw Eq. 1"), std::string::npos);
  EXPECT_NE(out.summary().find("FAIL"), std::string::npos);
}

TEST(ScenarioRunner, ViolationCeilingHoldsOnPerfectClocks) {
  ScenarioSpec spec = parse_scenario(R"({
    "name": "smoke-ceiling",
    "workload": {"ranks": 4, "rounds": 40},
    "clock": {"timer": "perfect"},
    "expect": {"raw_violations_max": 0}
  })");
  const ScenarioOutcome out = run_scenario(spec, temp_opts());
  EXPECT_TRUE(out.ok()) << out.summary();
  EXPECT_EQ(out.raw_violations, 0u);
  EXPECT_EQ(out.clc_repairs, 0u);
}

TEST(ScenarioRunner, DynamicChurnWithStepComposes) {
  ScenarioSpec spec = parse_scenario(R"({
    "name": "smoke-churn",
    "workload": {"kind": "dynamic", "ranks": 4, "rounds": 80,
                 "membership": [{"rank": 2, "join_round": 20, "leave_round": 60}],
                 "elephant": {"ranks": [0]}},
    "clock": {"steps": [{"rank": 1, "at_fraction": 0.5, "step": 0.0002}]},
    "expect": {"raw_violations_min": 1, "clc_repairs_min": 1}
  })");
  const ScenarioOutcome out = run_scenario(spec, temp_opts());
  EXPECT_TRUE(out.ok()) << out.summary();
}

TEST(ScenarioRunner, SameSeedSameOutcome) {
  ScenarioSpec spec = parse_scenario(R"({
    "name": "smoke-repro",
    "seed": 77,
    "workload": {"ranks": 4, "rounds": 50}
  })");
  const ScenarioOutcome a = run_scenario(spec, temp_opts());
  const ScenarioOutcome b = run_scenario(spec, temp_opts());
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.raw_violations, b.raw_violations);
  EXPECT_DOUBLE_EQ(a.raw_worst, b.raw_worst);
  EXPECT_EQ(a.clc_repairs, b.clc_repairs);
}

TEST(ScenarioRunner, UnknownTimerIsSchemaError) {
  ScenarioSpec spec = parse_scenario(R"({"name": "smoke-timer",
                                         "workload": {"ranks": 4, "rounds": 10}})");
  spec.clock.timer = "sundial";
  try {
    run_scenario(spec, temp_opts());
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.kind(), ScenarioErrorKind::Schema);
  }
}

}  // namespace
}  // namespace chronosync::scenario
