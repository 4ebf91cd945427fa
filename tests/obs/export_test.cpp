// Tests for the metrics exporter (obs/export.hpp): JSON snapshot round-trip
// (write -> parse -> bit-identical values), schema validation failure modes,
// the --metrics-out file, and the process gauges every session snapshot carries.
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"

namespace chronosync::obs {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_level(Level::Off);
    reset();
  }
  void TearDown() override {
    set_level(Level::Off);
    reset();
  }
};

/// A registry population with awkward doubles: values that only survive a
/// text round-trip when the writer prints full precision.
void populate_registry() {
  counter("test.exp_counter").add(7);
  gauge("test.exp_gauge").set(0.1);
  gauge("test.exp_tiny").set(4.9406564584124654e-324);  // min subnormal
  gauge("test.exp_huge").set(1e300);  // beyond long long: must not be cast to it
  QuantileHisto& q = quantile_histogram("test.exp_quant");
  for (int i = 1; i <= 100; ++i) q.add(static_cast<double>(i) * 1e-3);
  q.add(1.0 / 3.0);
  q.add(2.0 / 3.0);
}

TEST_F(ExportTest, JsonSnapshotRoundTripsBitForBit) {
  set_level(Level::Metrics);
  populate_registry();

  std::ostringstream os;
  write_metrics_json(os, "export-test", Level::Metrics);
  const auto parsed = read_metrics_json(os.str());
  const auto expected = metrics_snapshot();

  ASSERT_EQ(parsed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(parsed[i].first, expected[i].first);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed[i].second),
              std::bit_cast<std::uint64_t>(expected[i].second))
        << expected[i].first << ": " << parsed[i].second << " vs " << expected[i].second;
  }
}

TEST_F(ExportTest, JsonCarriesSchemaSuiteAndLevel) {
  set_level(Level::Metrics);
  std::ostringstream os;
  write_metrics_json(os, "export-test", Level::Trace);
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"schema\":\"chronosync-metrics-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"suite\":\"export-test\""), std::string::npos);
  EXPECT_NE(doc.find("\"obs_level\":\"trace\""), std::string::npos);
}

TEST_F(ExportTest, ReadRejectsEverySchemaViolation) {
  EXPECT_THROW(read_metrics_json("not json at all"), std::invalid_argument);
  EXPECT_THROW(read_metrics_json("[1,2,3]"), std::invalid_argument);
  EXPECT_THROW(read_metrics_json("{\"metrics\":{}}"), std::invalid_argument);  // no marker
  EXPECT_THROW(read_metrics_json("{\"schema\":\"other-v9\",\"metrics\":{}}"),
               std::invalid_argument);
  EXPECT_THROW(read_metrics_json("{\"schema\":\"chronosync-metrics-v1\"}"),
               std::invalid_argument);  // no metrics object
  EXPECT_THROW(read_metrics_json("{\"schema\":\"chronosync-metrics-v1\",\"metrics\":[]}"),
               std::invalid_argument);
  EXPECT_THROW(
      read_metrics_json("{\"schema\":\"chronosync-metrics-v1\",\"metrics\":{\"x\":\"y\"}}"),
      std::invalid_argument);
  // The minimal valid document parses to zero metrics.
  EXPECT_TRUE(
      read_metrics_json("{\"schema\":\"chronosync-metrics-v1\",\"metrics\":{}}").empty());
}

TEST_F(ExportTest, MetricsFileIsAlwaysJson) {
  // The extension picks nothing: --metrics-out with a ".prom" path gets the
  // JSON document too.
  const std::string prom_path = "export_test_file.prom";
  const char* argv[] = {"export_test", "--metrics-out", prom_path.c_str()};
  ObsSession session(Cli(3, argv), "export-test");
  counter("test.exp_file").add(1);
  session.finish();
  std::ifstream in(prom_path);
  std::ostringstream buf;
  buf << in.rdbuf();
  in.close();
  std::remove(prom_path.c_str());

  const std::string text = buf.str();
  EXPECT_EQ(text.rfind("{\"schema\":\"chronosync-metrics-v1\"", 0), 0u);
  std::ostringstream direct;
  write_metrics_json(direct, "export-test", Level::Metrics);
  EXPECT_EQ(text, direct.str());
  std::map<std::string, double> parsed;
  for (const auto& [name, value] : read_metrics_json(text)) parsed[name] = value;
  EXPECT_EQ(parsed.at("test.exp_file"), 1.0);

  EXPECT_THROW(write_metrics_json_file("no_such_dir/x.json", "export-test", Level::Metrics),
               std::invalid_argument);
}

TEST_F(ExportTest, SessionMetricsCarryProcessGauges) {
  const std::string path = "export_test_process.json";
  const char* argv[] = {"export_test", "--metrics-out", path.c_str()};
  ObsSession session(Cli(3, argv), "export-test");
  session.finish();
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  in.close();
  std::remove(path.c_str());

  std::map<std::string, double> parsed;
  for (const auto& [name, value] : read_metrics_json(buf.str())) parsed[name] = value;
  for (const char* key : {"process.rss_bytes", "process.peak_rss_bytes", "process.cpu_user_s",
                          "process.cpu_sys_s"}) {
    ASSERT_EQ(parsed.count(key), 1u) << key;
    EXPECT_GE(parsed.at(key), 0.0) << key;
  }
  EXPECT_GT(parsed.at("process.rss_bytes"), 0.0);
  EXPECT_GT(parsed.at("process.peak_rss_bytes"), 0.0);
}

}  // namespace
}  // namespace chronosync::obs
