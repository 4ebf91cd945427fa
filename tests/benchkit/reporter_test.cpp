#include "benchkit/reporter.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchkit/runner.hpp"
#include "common/cli.hpp"

namespace chronosync::benchkit {
namespace {

BenchRecord sample_record() {
  BenchRecord rec;
  rec.suite = "unit";
  rec.name = "sample";
  rec.kind = "timing";
  rec.config = {{"ranks", "8"}, {"seed", "42"}};
  rec.iters = 3;
  rec.wall_ns_p50 = 1500.0;
  rec.wall_ns_p90 = 2000.0;
  rec.wall_ns_min = 1000.0;
  rec.throughput = 123.5;
  rec.metrics = {{"violations", 7.0}};
  rec.cpu_user_ns = 2500;
  rec.cpu_sys_ns = 500;
  rec.peak_rss_bytes = 1 << 20;
  rec.alloc_bytes_per_iter = 4096;
  rec.git_sha = "abc123";
  rec.timestamp = 1700000000;
  return rec;
}

// Golden schema contract: exact key set, order, and JSON types.  Downstream
// trajectory tooling keys off these names; changing them requires a
// kSchemaVersion bump plus an update here.
TEST(BenchRecordSchema, GoldenKeysAndTypes) {
  const JsonValue obj = to_json(sample_record());
  ASSERT_TRUE(obj.is_object());

  const std::vector<std::string> expected_keys = {
      "schema_version", "suite",       "name",       "kind",
      "config",         "iters",       "wall_ns_p50", "wall_ns_p90",
      "wall_ns_min",    "throughput",  "metrics",    "cpu_user_ns",
      "cpu_sys_ns",     "peak_rss_bytes",            "alloc_bytes_per_iter",
      "git_sha",        "timestamp"};
  std::vector<std::string> keys;
  for (const auto& [k, v] : obj.members()) keys.push_back(k);
  EXPECT_EQ(keys, expected_keys);

  // sample_record carries CPU time but no bootstrap interval: a v2 record.
  EXPECT_EQ(static_cast<int>(obj.find("schema_version")->as_number()), 2);
  EXPECT_TRUE(obj.find("suite")->is_string());
  EXPECT_TRUE(obj.find("name")->is_string());
  EXPECT_TRUE(obj.find("kind")->is_string());
  EXPECT_TRUE(obj.find("config")->is_object());
  for (const auto& [k, v] : obj.find("config")->members()) EXPECT_TRUE(v.is_string());
  EXPECT_TRUE(obj.find("iters")->is_number());
  EXPECT_TRUE(obj.find("wall_ns_p50")->is_number());
  EXPECT_TRUE(obj.find("wall_ns_p90")->is_number());
  EXPECT_TRUE(obj.find("wall_ns_min")->is_number());
  EXPECT_TRUE(obj.find("throughput")->is_number());
  EXPECT_TRUE(obj.find("metrics")->is_object());
  for (const auto& [k, v] : obj.find("metrics")->members()) EXPECT_TRUE(v.is_number());
  EXPECT_TRUE(obj.find("cpu_user_ns")->is_number());
  EXPECT_TRUE(obj.find("cpu_sys_ns")->is_number());
  EXPECT_TRUE(obj.find("peak_rss_bytes")->is_number());
  EXPECT_TRUE(obj.find("alloc_bytes_per_iter")->is_number());
  EXPECT_TRUE(obj.find("git_sha")->is_string());
  EXPECT_TRUE(obj.find("timestamp")->is_number());
}

TEST(BenchRecordSchema, GoldenSerializedForm) {
  const std::string expected =
      "{\"schema_version\":2,\"suite\":\"unit\",\"name\":\"sample\","
      "\"kind\":\"timing\",\"config\":{\"ranks\":\"8\",\"seed\":\"42\"},"
      "\"iters\":3,\"wall_ns_p50\":1500,\"wall_ns_p90\":2000,"
      "\"wall_ns_min\":1000,\"throughput\":123.5,"
      "\"metrics\":{\"violations\":7},\"cpu_user_ns\":2500,"
      "\"cpu_sys_ns\":500,\"peak_rss_bytes\":1048576,"
      "\"alloc_bytes_per_iter\":4096,\"git_sha\":\"abc123\","
      "\"timestamp\":1700000000}";
  EXPECT_EQ(to_json(sample_record()).dump(), expected);
}

// The stamped version must describe the record's content, not the library's
// latest revision: a record with no CPU sample and no bootstrap interval is
// written as v1 without the newer keys, and adding an interval promotes it
// to v3 with the four CI keys in place.
TEST(BenchRecordSchema, VersionReflectsContent) {
  BenchRecord plain = sample_record();
  plain.cpu_user_ns = 0;
  plain.cpu_sys_ns = 0;
  const JsonValue v1 = to_json(plain);
  EXPECT_EQ(static_cast<int>(v1.find("schema_version")->as_number()), 1);
  EXPECT_EQ(v1.find("cpu_user_ns"), nullptr);
  EXPECT_EQ(v1.find("cpu_sys_ns"), nullptr);
  EXPECT_EQ(v1.find("wall_ns_ci_lo"), nullptr);

  BenchRecord with_ci = sample_record();
  with_ci.wall_ns_ci_lo = 1200.0;
  with_ci.wall_ns_ci_hi = 1800.0;
  with_ci.boot_resamples = 1000;
  with_ci.boot_confidence = 0.95;
  const JsonValue v3 = to_json(with_ci);
  EXPECT_EQ(static_cast<int>(v3.find("schema_version")->as_number()), 3);
  ASSERT_NE(v3.find("wall_ns_ci_lo"), nullptr);
  EXPECT_DOUBLE_EQ(v3.find("wall_ns_ci_lo")->as_number(), 1200.0);
  EXPECT_DOUBLE_EQ(v3.find("wall_ns_ci_hi")->as_number(), 1800.0);
  EXPECT_EQ(static_cast<int>(v3.find("boot_resamples")->as_number()), 1000);
  EXPECT_DOUBLE_EQ(v3.find("boot_confidence")->as_number(), 0.95);

  const BenchRecord back = record_from_json(v3);
  EXPECT_DOUBLE_EQ(back.wall_ns_ci_lo, with_ci.wall_ns_ci_lo);
  EXPECT_DOUBLE_EQ(back.wall_ns_ci_hi, with_ci.wall_ns_ci_hi);
  EXPECT_EQ(back.boot_resamples, with_ci.boot_resamples);
  EXPECT_DOUBLE_EQ(back.boot_confidence, with_ci.boot_confidence);

  const BenchRecord plain_back = record_from_json(v1);
  EXPECT_EQ(plain_back.cpu_user_ns, 0);
  EXPECT_EQ(plain_back.boot_resamples, 0);
}

// v1 records (the committed baselines) must keep parsing: the CPU fields did
// not exist, so they default to zero.
TEST(BenchRecordSchema, ParsesVersion1RecordsWithZeroCpuFields) {
  JsonValue v1 = to_json(sample_record());
  v1.set("schema_version", 1);
  // A v1 record would not carry the CPU keys, but find() keeps the first
  // occurrence, so build a faithful copy without them.
  JsonValue stripped = JsonValue::object();
  for (const auto& [k, v] : v1.members()) {
    if (k == "cpu_user_ns" || k == "cpu_sys_ns") continue;
    stripped.set(k, v);
  }
  const BenchRecord back = record_from_json(stripped);
  EXPECT_EQ(back.cpu_user_ns, 0);
  EXPECT_EQ(back.cpu_sys_ns, 0);
  EXPECT_EQ(back.suite, "unit");
  EXPECT_DOUBLE_EQ(back.wall_ns_p50, 1500.0);
}

TEST(BenchRecordSchema, RoundTripsThroughJson) {
  const BenchRecord rec = sample_record();
  const BenchRecord back = record_from_json(JsonValue::parse(to_json(rec).dump()));
  EXPECT_EQ(back.suite, rec.suite);
  EXPECT_EQ(back.name, rec.name);
  EXPECT_EQ(back.kind, rec.kind);
  EXPECT_EQ(back.config, rec.config);
  EXPECT_EQ(back.iters, rec.iters);
  EXPECT_DOUBLE_EQ(back.wall_ns_p50, rec.wall_ns_p50);
  EXPECT_DOUBLE_EQ(back.wall_ns_p90, rec.wall_ns_p90);
  EXPECT_DOUBLE_EQ(back.wall_ns_min, rec.wall_ns_min);
  EXPECT_DOUBLE_EQ(back.throughput, rec.throughput);
  EXPECT_EQ(back.metrics, rec.metrics);
  EXPECT_EQ(back.cpu_user_ns, rec.cpu_user_ns);
  EXPECT_EQ(back.cpu_sys_ns, rec.cpu_sys_ns);
  EXPECT_EQ(back.peak_rss_bytes, rec.peak_rss_bytes);
  EXPECT_EQ(back.alloc_bytes_per_iter, rec.alloc_bytes_per_iter);
  EXPECT_EQ(back.git_sha, rec.git_sha);
  EXPECT_EQ(back.timestamp, rec.timestamp);
}

TEST(BenchRecordSchema, RejectsWrongVersionAndMissingKeys) {
  JsonValue wrong = to_json(sample_record());
  wrong.set("schema_version", kSchemaVersion + 1);
  EXPECT_THROW(record_from_json(wrong), std::invalid_argument);

  JsonValue missing = JsonValue::object();
  missing.set("schema_version", kSchemaVersion);
  EXPECT_THROW(record_from_json(missing), std::invalid_argument);

  EXPECT_THROW(record_from_json(JsonValue(3.0)), std::invalid_argument);

  // A v3 interval must be ordered; a zero-width one (lo == hi) is valid.
  BenchRecord with_ci = sample_record();
  with_ci.wall_ns_ci_lo = 1500.0;
  with_ci.wall_ns_ci_hi = 1500.0;
  with_ci.boot_resamples = 1000;
  with_ci.boot_confidence = 0.95;
  EXPECT_NO_THROW(record_from_json(to_json(with_ci)));
  with_ci.wall_ns_ci_lo = 1501.0;
  EXPECT_THROW(record_from_json(to_json(with_ci)), std::invalid_argument);
}

TEST(JsonReporter, AppendsOneLinePerRecordAndCreatesDirectories) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "chronosync_reporter_test";
  std::filesystem::remove_all(dir);
  const std::filesystem::path file = dir / "nested" / "out.json";

  const JsonReporter reporter(file.string());
  reporter.append(sample_record());
  BenchRecord second = sample_record();
  second.name = "second";
  reporter.append(second);

  std::ifstream in(file);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(record_from_json(JsonValue::parse(lines[0])).name, "sample");
  EXPECT_EQ(record_from_json(JsonValue::parse(lines[1])).name, "second");
  std::filesystem::remove_all(dir);
}

Harness make_harness(const std::vector<std::string>& extra_args) {
  std::vector<const char*> argv = {"test_benchkit"};
  for (const auto& a : extra_args) argv.push_back(a.c_str());
  const Cli cli(static_cast<int>(argv.size()), argv.data());
  return Harness(cli, "unit_suite");
}

// Two same-seed harness runs must produce identical measurement identities
// (names, configs, iteration counts) so trajectory diffs line up run-to-run;
// only wall times and resource numbers may differ.
TEST(Harness, SameSeedRunsProduceIdenticalRecordIdentities) {
  const std::vector<std::string> args = {"--seed", "7", "--reps", "3", "--warmup", "0"};
  auto run = [&args] {
    Harness h = make_harness(args);
    volatile double sink = 0.0;
    h.time("spin", {{"n", "100"}}, 100, [&sink] {
      for (int i = 0; i < 100; ++i) sink = sink + static_cast<double>(i);
    });
    h.metric("figure", {{"case", "a"}}, {{"value", 3.5}});
    return h.records();
  };
  const std::vector<BenchRecord> a = run();
  const std::vector<BenchRecord> b = run();

  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].suite, b[i].suite);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].config, b[i].config);
    EXPECT_EQ(a[i].iters, b[i].iters);
    EXPECT_EQ(a[i].metrics, b[i].metrics);
    EXPECT_EQ(a[i].git_sha, b[i].git_sha);
  }
}

TEST(Harness, StampsSeedIntersAndSchemaFields) {
  Harness h = make_harness({"--seed", "9", "--reps", "2", "--warmup", "1"});
  EXPECT_EQ(h.reps(), 2);
  EXPECT_EQ(h.warmup(), 1);
  EXPECT_FALSE(h.json_enabled());

  int calls = 0;
  const BenchRecord rec = h.time("count_calls", {}, 0, [&calls] { ++calls; });
  EXPECT_EQ(calls, 3);  // 1 warmup + 2 timed
  EXPECT_EQ(rec.suite, "unit_suite");
  EXPECT_EQ(rec.kind, "timing");
  EXPECT_EQ(rec.iters, 2);
  ASSERT_EQ(rec.config.size(), 1u);
  EXPECT_EQ(rec.config[0].first, "seed");
  EXPECT_EQ(rec.config[0].second, "9");
  EXPECT_GE(rec.wall_ns_p50, rec.wall_ns_min);
  EXPECT_GE(rec.wall_ns_p90, rec.wall_ns_p50);
  EXPECT_GT(rec.peak_rss_bytes, 0);
  EXPECT_GT(rec.timestamp, 0);
  EXPECT_FALSE(rec.git_sha.empty());
}

// Timed records carry a bootstrap interval by default (schema v3) that
// brackets the reported median; --boot-resamples 0 opts out, dropping the
// record back to the CPU-only schema.
TEST(Harness, BootstrapIntervalBracketsMedianAndCanBeDisabled) {
  Harness h = make_harness({"--reps", "5", "--warmup", "0"});
  EXPECT_EQ(h.boot_resamples(), 1000);
  const BenchRecord rec = h.time("timed", {}, 0, [] {
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  });
  EXPECT_EQ(rec.boot_resamples, 1000);
  EXPECT_DOUBLE_EQ(rec.boot_confidence, 0.95);
  EXPECT_LE(rec.wall_ns_ci_lo, rec.wall_ns_p50);
  EXPECT_GE(rec.wall_ns_ci_hi, rec.wall_ns_p50);

  Harness off = make_harness({"--reps", "3", "--warmup", "0", "--boot-resamples", "0"});
  const BenchRecord plain = off.time("timed", {}, 0, [] {});
  EXPECT_EQ(plain.boot_resamples, 0);
  EXPECT_DOUBLE_EQ(plain.wall_ns_ci_lo, 0.0);
  EXPECT_DOUBLE_EQ(plain.wall_ns_ci_hi, 0.0);
}

TEST(Harness, WritesJsonLinesWhenRequested) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "chronosync_harness_test";
  std::filesystem::remove_all(dir);
  const std::filesystem::path file = dir / "records.json";

  Harness h = make_harness({"--json", file.string(), "--reps", "1", "--warmup", "0"});
  ASSERT_TRUE(h.json_enabled());
  h.time("timed", {}, 10, [] {});
  h.metric("scalar", {}, {{"x", 1.0}});

  std::ifstream in(file);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  const BenchRecord timed = record_from_json(JsonValue::parse(lines[0]));
  EXPECT_EQ(timed.kind, "timing");
  EXPECT_GT(timed.throughput, 0.0);
  const BenchRecord scalar = record_from_json(JsonValue::parse(lines[1]));
  EXPECT_EQ(scalar.kind, "metric");
  ASSERT_EQ(scalar.metrics.size(), 1u);
  EXPECT_EQ(scalar.metrics[0].first, "x");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace chronosync::benchkit
