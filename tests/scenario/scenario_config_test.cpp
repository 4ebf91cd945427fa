#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace chronosync::scenario {
namespace {

// The scenario config parser is the trust boundary between committed JSON
// files and the simulation engines: every defect must surface as a typed
// ScenarioError naming the offending member, never as a crash or a silently
// ignored key.

ScenarioErrorKind kind_of(const std::string& text) {
  try {
    parse_scenario(text);
  } catch (const ScenarioError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected ScenarioError for: " << text;
  return ScenarioErrorKind::Io;
}

TEST(ScenarioConfig, MinimalDocumentGetsDefaults) {
  const ScenarioSpec spec = parse_scenario(R"({"name": "mini"})");
  EXPECT_EQ(spec.name, "mini");
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.workload.kind, WorkloadKind::Sweep);
  EXPECT_EQ(spec.workload.ranks, 8);
  EXPECT_EQ(spec.clock.timer, "intel-tsc");
  EXPECT_LT(spec.clock.base_drift_max, 0.0);  // sentinel: keep the preset
  EXPECT_TRUE(spec.expect.clc_clean_audit);
  EXPECT_EQ(spec.expect.raw_violations_min, -1);
}

TEST(ScenarioConfig, FullDocumentRoundTrips) {
  const ScenarioSpec spec = parse_scenario(R"({
    "name": "full", "description": "d", "seed": 7,
    "workload": {
      "kind": "dynamic", "ranks": 6, "rounds": 120, "bytes": 1024,
      "gap_mean": 2.0, "gap_spread": 0.1, "collective_every": 10,
      "probe_pings": 5, "pinning": "block",
      "elephant": {"bytes": 262144, "ranks": [0, 3], "probability": 0.25},
      "membership": [{"rank": 2, "join_round": 10, "leave_round": 90}]
    },
    "clock": {
      "timer": "gettimeofday",
      "overrides": {"wander_sigma": 1e-8, "wander_clamp": 2e-6},
      "storms": [{"nodes": [0, 1], "start_fraction": 0.2,
                  "duration_fraction": 0.3, "extra_ppm": 500}],
      "steps": [{"rank": 1, "at_fraction": 0.5, "step": 0.001}],
      "leap_second_ranks": [4]
    },
    "network": {"asymmetry_extra": 1e-5, "varying_amplitude": 2e-5,
                "varying_period": 3.0},
    "expect": {"raw_violations_min": 3, "raw_violations_max": 5000,
               "clc_repairs_min": 2, "structural_clean": true,
               "differential_clean": true, "clc_clean_audit": true,
               "stream_identical": true}
  })");
  EXPECT_EQ(spec.workload.kind, WorkloadKind::Dynamic);
  EXPECT_EQ(spec.workload.elephant.ranks, (std::vector<Rank>{0, 3}));
  ASSERT_EQ(spec.workload.membership.size(), 1u);
  EXPECT_EQ(spec.workload.membership[0].leave_round, 90);
  EXPECT_DOUBLE_EQ(spec.clock.wander_sigma, 1e-8);
  EXPECT_LT(spec.clock.base_drift_max, 0.0);  // untouched override stays sentinel
  ASSERT_EQ(spec.clock.storms.size(), 1u);
  EXPECT_EQ(spec.clock.storms[0].nodes, (std::vector<int>{0, 1}));
  ASSERT_EQ(spec.clock.steps.size(), 1u);
  EXPECT_EQ(spec.clock.steps[0].rank, 1);
  EXPECT_EQ(spec.clock.leap_second_ranks, (std::vector<Rank>{4}));
  EXPECT_DOUBLE_EQ(spec.network.asymmetry_extra, 1e-5);
  EXPECT_EQ(spec.expect.raw_violations_min, 3);
  EXPECT_EQ(spec.expect.clc_repairs_min, 2);
}

TEST(ScenarioConfig, MalformedJsonIsParseError) {
  EXPECT_EQ(kind_of("{"), ScenarioErrorKind::Parse);
  EXPECT_EQ(kind_of(""), ScenarioErrorKind::Parse);
  EXPECT_EQ(kind_of(R"({"name": "x",})"), ScenarioErrorKind::Parse);
}

TEST(ScenarioConfig, UnknownKeysAreRejectedAtEveryLevel) {
  EXPECT_EQ(kind_of(R"({"name": "x", "bogus": 1})"), ScenarioErrorKind::Schema);
  EXPECT_EQ(kind_of(R"({"name": "x", "workload": {"typo_rounds": 5}})"),
            ScenarioErrorKind::Schema);
  EXPECT_EQ(kind_of(R"({"name": "x", "clock": {"overrides": {"wander": 1}}})"),
            ScenarioErrorKind::Schema);
  EXPECT_EQ(kind_of(R"({"name": "x", "expect": {"raw_min": 1}})"),
            ScenarioErrorKind::Schema);
  // The streaming cross-check has fixed bounds; a "stream" block is unknown.
  EXPECT_EQ(kind_of(R"({"name": "x", "stream": {"enabled": true}})"),
            ScenarioErrorKind::Schema);
}

TEST(ScenarioConfig, SchemaViolations) {
  // No name / wrong root type.
  EXPECT_EQ(kind_of(R"({"seed": 1})"), ScenarioErrorKind::Schema);
  EXPECT_EQ(kind_of(R"([1, 2])"), ScenarioErrorKind::Schema);
  // Wrong member types.
  EXPECT_EQ(kind_of(R"({"name": 5})"), ScenarioErrorKind::Schema);
  EXPECT_EQ(kind_of(R"({"name": "x", "seed": "soon"})"), ScenarioErrorKind::Schema);
  EXPECT_EQ(kind_of(R"({"name": "x", "seed": 1.5})"), ScenarioErrorKind::Schema);
  EXPECT_EQ(kind_of(R"({"name": "x", "workload": 3})"), ScenarioErrorKind::Schema);
  EXPECT_EQ(kind_of(R"({"name": "x", "workload": {"ranks": [4]}})"),
            ScenarioErrorKind::Schema);
  // Range checks.
  EXPECT_EQ(kind_of(R"({"name": "x", "seed": -1})"), ScenarioErrorKind::Schema);
  EXPECT_EQ(kind_of(R"({"name": "x", "workload": {"ranks": 1}})"),
            ScenarioErrorKind::Schema);
  EXPECT_EQ(kind_of(R"({"name": "x", "workload": {"gap_spread": 1.0}})"),
            ScenarioErrorKind::Schema);
  EXPECT_EQ(kind_of(R"({"name": "x", "workload": {"kind": "ring"}})"),
            ScenarioErrorKind::Schema);
  EXPECT_EQ(kind_of(R"({"name": "x", "workload": {"pinning": "socket"}})"),
            ScenarioErrorKind::Schema);
}

TEST(ScenarioConfig, ProbeEveryParsesAndRejectsNegatives) {
  const ScenarioSpec spec = parse_scenario(
      R"({"name": "x", "workload": {"probe_every": 25}})");
  EXPECT_EQ(spec.workload.probe_every, 25);
  // Default: no mid-run probe batches.
  EXPECT_EQ(parse_scenario(R"({"name": "x"})").workload.probe_every, 0);
  EXPECT_EQ(kind_of(R"({"name": "x", "workload": {"probe_every": -1}})"),
            ScenarioErrorKind::Schema);
  EXPECT_EQ(kind_of(R"({"name": "x", "workload": {"probe_every": 1.5}})"),
            ScenarioErrorKind::Schema);
}

TEST(ScenarioConfig, AccuracyExpectationsParse) {
  const ScenarioSpec spec = parse_scenario(R"({"name": "x", "expect": {
    "accuracy": [{"method": "kalman-drift", "reference": "linear-interpolation",
                  "max_rms_ratio": 0.9, "rms_slack": 1e-6}]}})");
  ASSERT_EQ(spec.expect.accuracy.size(), 1u);
  EXPECT_EQ(spec.expect.accuracy[0].method, "kalman-drift");
  EXPECT_EQ(spec.expect.accuracy[0].reference, "linear-interpolation");
  EXPECT_DOUBLE_EQ(spec.expect.accuracy[0].max_rms_ratio, 0.9);
  EXPECT_DOUBLE_EQ(spec.expect.accuracy[0].rms_slack, 1e-6);
}

TEST(ScenarioConfig, AccuracyExpectationsAreValidatedAgainstVocabulary) {
  // Unknown method / reference names must die in the parser, not at runtime
  // deep in the differential suite.
  EXPECT_EQ(kind_of(R"({"name": "x", "expect": {"accuracy": [
                {"method": "no-such-method", "reference": "raw"}]}})"),
            ScenarioErrorKind::Schema);
  EXPECT_EQ(kind_of(R"({"name": "x", "expect": {"accuracy": [
                {"method": "kalman-drift", "reference": "no-such-method"}]}})"),
            ScenarioErrorKind::Schema);
  // Racing a method against itself is vacuous.
  EXPECT_EQ(kind_of(R"({"name": "x", "expect": {"accuracy": [
                {"method": "kalman-drift", "reference": "kalman-drift"}]}})"),
            ScenarioErrorKind::Schema);
  // Degenerate race parameters.
  EXPECT_EQ(kind_of(R"({"name": "x", "expect": {"accuracy": [
                {"method": "kalman-drift", "reference": "raw", "max_rms_ratio": 0}]}})"),
            ScenarioErrorKind::Schema);
  EXPECT_EQ(kind_of(R"({"name": "x", "expect": {"accuracy": [
                {"method": "kalman-drift", "reference": "raw", "rms_slack": -1e-9}]}})"),
            ScenarioErrorKind::Schema);
  // Unknown keys inside an accuracy entry.
  EXPECT_EQ(kind_of(R"({"name": "x", "expect": {"accuracy": [
                {"method": "kalman-drift", "reference": "raw", "tol": 1}]}})"),
            ScenarioErrorKind::Schema);
}

TEST(ScenarioConfig, DynamicOnlyFeaturesRequireDynamicKind) {
  EXPECT_EQ(kind_of(R"({"name": "x", "workload": {"elephant": {"probability": 0.1}}})"),
            ScenarioErrorKind::Schema);
  EXPECT_EQ(
      kind_of(R"({"name": "x", "workload": {"membership": [{"rank": 0, "join_round": 1}]}})"),
      ScenarioErrorKind::Schema);
}

TEST(ScenarioConfig, RankReferencesAreValidatedAgainstWorkload) {
  // Step rank 7 with only 4 ranks.
  EXPECT_EQ(kind_of(R"({"name": "x", "workload": {"ranks": 4},
                        "clock": {"steps": [{"rank": 7}]}})"),
            ScenarioErrorKind::Schema);
  EXPECT_EQ(kind_of(R"({"name": "x", "workload": {"ranks": 4},
                        "clock": {"leap_second_ranks": [4]}})"),
            ScenarioErrorKind::Schema);
  // Negative step would break local monotonicity.
  EXPECT_EQ(kind_of(R"({"name": "x",
                        "clock": {"steps": [{"rank": 0, "step": -1e-3}]}})"),
            ScenarioErrorKind::Schema);
  // Empty membership window.
  EXPECT_EQ(kind_of(R"({"name": "x", "workload": {"kind": "dynamic",
                        "membership": [{"rank": 0, "join_round": 5, "leave_round": 5}]}})"),
            ScenarioErrorKind::Schema);
}

TEST(ScenarioConfig, MissingFileIsIoError) {
  try {
    load_scenario_file("/nonexistent/scenario.json");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.kind(), ScenarioErrorKind::Io);
    EXPECT_NE(std::string(e.what()).find("io"), std::string::npos);
  }
}

TEST(ScenarioConfig, LoadFileReportsPathInErrors) {
  const std::string path = testing::TempDir() + "/broken_scenario.json";
  std::ofstream(path) << "{\"name\":";
  try {
    load_scenario_file(path);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.kind(), ScenarioErrorKind::Parse);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(ScenarioConfig, ListScenarioFilesSortsAndFilters) {
  const std::string dir = testing::TempDir() + "/scn_list";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/b.json") << "{}";
  std::ofstream(dir + "/a.json") << "{}";
  std::ofstream(dir + "/notes.txt") << "x";
  const std::vector<std::string> files = list_scenario_files(dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_NE(files[0].find("a.json"), std::string::npos);
  EXPECT_NE(files[1].find("b.json"), std::string::npos);
  EXPECT_THROW(list_scenario_files(dir + "/missing"), ScenarioError);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace chronosync::scenario
