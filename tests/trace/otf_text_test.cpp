#include "trace/otf_text.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/scratch_dir.hpp"
#include "topology/cluster.hpp"
#include "trace/trace_io_error.hpp"
#include "workload/sweep.hpp"

namespace chronosync {
namespace {

Trace sample_trace() {
  Trace t(pinning::inter_node(clusters::xeon_rwth(), 2), {0.47e-6, 0.86e-6, 4.29e-6},
          "intel-tsc");
  t.intern_region("main loop");  // name with a space
  Event s;
  s.type = EventType::Send;
  s.peer = 1;
  s.tag = 5;
  s.bytes = 4096;
  s.msg_id = 77;
  s.local_ts = 1.2345678901234567;
  s.true_ts = 1.23;
  t.events(0).push_back(s);
  Event c;
  c.type = EventType::CollBegin;
  c.coll = CollectiveKind::Alltoall;
  c.coll_id = (static_cast<std::int64_t>(3) << 32) | 9;
  c.root = 1;
  c.local_ts = c.true_ts = 2.0;
  t.events(1).push_back(c);
  return t;
}

TEST(OtfText, RoundTripExact) {
  Trace t = sample_trace();
  std::stringstream buf;
  write_text_trace(t, buf);
  Trace u = read_text_trace(buf);

  EXPECT_EQ(u.ranks(), 2);
  EXPECT_EQ(u.timer_name(), "intel-tsc");
  EXPECT_DOUBLE_EQ(u.min_latency(0, 1), 4.29e-6);
  ASSERT_EQ(u.regions().size(), 1u);
  EXPECT_EQ(u.region_name(0), "main loop");

  const Event& s = u.events(0)[0];
  EXPECT_EQ(s.type, EventType::Send);
  EXPECT_EQ(s.msg_id, 77);
  EXPECT_DOUBLE_EQ(s.local_ts, 1.2345678901234567);  // 17-digit exactness
  const Event& c = u.events(1)[0];
  EXPECT_EQ(c.coll, CollectiveKind::Alltoall);
  EXPECT_EQ(c.coll_id, (static_cast<std::int64_t>(3) << 32) | 9);
}

TEST(OtfText, IsHumanReadable) {
  Trace t = sample_trace();
  std::stringstream buf;
  write_text_trace(t, buf);
  const std::string s = buf.str();
  EXPECT_NE(s.find("CSTXT 1"), std::string::npos);
  EXPECT_NE(s.find("EV 0 SEND "), std::string::npos);
  EXPECT_NE(s.find("REGION 0 main loop"), std::string::npos);
}

TEST(OtfText, RejectsGarbageAndMalformed) {
  std::stringstream nothead("hello world");
  EXPECT_THROW(read_text_trace(nothead), std::invalid_argument);
  std::stringstream malformed("CSTXT 1\nRANK 0 0 0 0\nEV 0 SEND oops\n");
  EXPECT_THROW(read_text_trace(malformed), std::invalid_argument);
  std::stringstream badkind("CSTXT 1\nRANK 0 0 0 0\nBOGUS 1 2 3\n");
  EXPECT_THROW(read_text_trace(badkind), std::invalid_argument);
}

// Strict-reader regressions: every malformed record is rejected with the
// 1-based line number where it occurs, instead of being silently skipped or
// parsed as zeros.
std::string expect_text_error(const std::string& body) {
  std::stringstream in(body);
  try {
    read_text_trace(in);
    ADD_FAILURE() << "expected TraceIoError for:\n" << body;
    return {};
  } catch (const TraceIoError& e) {
    EXPECT_EQ(e.kind(), TraceIoErrorKind::Malformed) << e.what();
    return e.what();
  }
}

TEST(OtfText, MissingEvFieldsReportLineNumber) {
  const std::string msg = expect_text_error(
      "CSTXT 1\n"
      "RANK 0 0 0 0\n"
      "EV 0 SEND 1.0 1.0 -1 1\n");  // only 6 of 14 EV fields
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("EV"), std::string::npos) << msg;
}

TEST(OtfText, TrailingEvFieldsAreRejected) {
  const std::string msg = expect_text_error(
      "CSTXT 1\n"
      "RANK 0 0 0 0\n"
      "EV 0 ENTER 1.0 1.0 -1 -1 -1 0 -1 0 -1 -1 -1 0 EXTRA\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("trailing"), std::string::npos) << msg;
}

TEST(OtfText, UnknownEventTypeReportsLineNumber) {
  const std::string msg = expect_text_error(
      "CSTXT 1\n"
      "RANK 0 0 0 0\n"
      "\n"  // blank lines do not confuse the line counter
      "EV 0 TELEPORT 1.0 1.0 -1 -1 -1 0 -1 0 -1 -1 -1 0\n");
  EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("TELEPORT"), std::string::npos) << msg;
}

TEST(OtfText, CollKindOutOfRangeReportsLineNumber) {
  const std::string msg = expect_text_error(
      "CSTXT 1\n"
      "RANK 0 0 0 0\n"
      "EV 0 COLL_BEGIN 1.0 1.0 -1 -1 -1 0 -1 99 -1 -1 -1 0\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
}

TEST(OtfText, EvRankOutOfRangeReportsItsOwnLine) {
  // The rank check is deferred until all RANK records are known, but the
  // error still points at the offending EV line.
  const std::string msg = expect_text_error(
      "CSTXT 1\n"
      "RANK 0 0 0 0\n"
      "EV 7 ENTER 1.0 1.0 -1 -1 -1 0 -1 0 -1 -1 -1 0\n"
      "RANK 1 0 0 1\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 7"), std::string::npos) << msg;
}

TEST(OtfText, MalformedRankAndLatencyRecordsAreRejected) {
  const std::string m1 = expect_text_error("CSTXT 1\nRANK 0 0 zero 0\n");
  EXPECT_NE(m1.find("line 2"), std::string::npos) << m1;
  const std::string m2 = expect_text_error("CSTXT 1\nLATENCY 1e-7 2e-7\nRANK 0 0 0 0\n");
  EXPECT_NE(m2.find("line 2"), std::string::npos) << m2;
  const std::string m3 = expect_text_error("CSTXT 1\nRANK 1 0 0 0\n");  // ids not 0..n-1
  EXPECT_NE(m3.find("out of order"), std::string::npos) << m3;
}

TEST(OtfText, MissingTimerNameIsRejected) {
  const std::string msg = expect_text_error("CSTXT 1\nTIMER\nRANK 0 0 0 0\n");
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

TEST(OtfText, NoRankRecordsIsRejected) {
  expect_text_error("CSTXT 1\nTIMER tsc\n");
}

TEST(OtfText, FileRoundTrip) {
  const ScratchDir scratch(testing::TempDir());
  const std::string path = scratch.file("trace.txt");
  Trace t = sample_trace();
  write_text_trace_file(t, path);
  Trace u = read_text_trace_file(path);
  EXPECT_EQ(u.total_events(), t.total_events());
}

TEST(OtfText, RealTraceAnalyzesIdentically) {
  SweepConfig cfg;
  cfg.rounds = 40;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::intel_tsc();
  job.seed = 11;
  AppRunResult res = run_sweep(cfg, std::move(job));

  std::stringstream buf;
  write_text_trace(res.trace, buf);
  Trace back = read_text_trace(buf);
  EXPECT_EQ(back.match_messages().size(), res.trace.match_messages().size());
  for (Rank r = 0; r < 4; ++r) {
    ASSERT_EQ(back.events(r).size(), res.trace.events(r).size());
    for (std::size_t i = 0; i < back.events(r).size(); ++i) {
      EXPECT_DOUBLE_EQ(back.events(r)[i].local_ts, res.trace.events(r)[i].local_ts);
    }
  }
}

}  // namespace
}  // namespace chronosync
