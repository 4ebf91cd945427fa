// Whole-trace binary I/O (write_trace_v2 / read_trace_v2 and their file
// forms): every event field, the metadata, and the placement survive a round
// trip, and failures stay catchable as std::invalid_argument, the type
// TraceIoError derives from for older call sites.
#include <gtest/gtest.h>

#include <sstream>

#include "../testutil/random_trace.hpp"
#include "common/scratch_dir.hpp"
#include "topology/cluster.hpp"
#include "trace/stream_io.hpp"

namespace chronosync {
namespace {

Trace sample_trace() {
  Trace t(pinning::inter_node(clusters::xeon_rwth(), 3), {0.47e-6, 0.86e-6, 4.29e-6},
          "intel-tsc");
  t.intern_region("main");
  t.intern_region("halo");
  Event s;
  s.type = EventType::Send;
  s.peer = 1;
  s.tag = 5;
  s.bytes = 4096;
  s.msg_id = 77;
  s.local_ts = 1.25;
  s.true_ts = 1.24;
  t.events(0).push_back(s);
  Event r = s;
  r.type = EventType::Recv;
  r.peer = 0;
  r.local_ts = 1.26;
  t.events(1).push_back(r);
  Event c;
  c.type = EventType::CollBegin;
  c.coll = CollectiveKind::Allreduce;
  c.coll_id = 3;
  c.root = 0;
  c.local_ts = 2.0;
  c.true_ts = 2.0;
  t.events(2).push_back(c);
  return t;
}

TEST(TraceIo, RoundTripExact) {
  Trace t = sample_trace();
  std::stringstream buf;
  write_trace_v2(t, buf);
  Trace u = read_trace_v2(buf);

  EXPECT_EQ(u.ranks(), t.ranks());
  EXPECT_EQ(u.timer_name(), "intel-tsc");
  EXPECT_EQ(u.total_events(), t.total_events());
  EXPECT_DOUBLE_EQ(u.min_latency(0, 1), t.min_latency(0, 1));
  EXPECT_EQ(u.regions().size(), 2u);
  EXPECT_EQ(u.region_name(1), "halo");

  const Event& s = u.events(0)[0];
  EXPECT_EQ(s.type, EventType::Send);
  EXPECT_EQ(s.peer, 1);
  EXPECT_EQ(s.tag, 5);
  EXPECT_EQ(s.bytes, 4096u);
  EXPECT_EQ(s.msg_id, 77);
  EXPECT_DOUBLE_EQ(s.local_ts, 1.25);
  EXPECT_DOUBLE_EQ(s.true_ts, 1.24);

  const Event& c = u.events(2)[0];
  EXPECT_EQ(c.coll, CollectiveKind::Allreduce);
  EXPECT_EQ(c.coll_id, 3);
  EXPECT_EQ(c.root, 0);
}

TEST(TraceIo, PlacementSurvives) {
  Trace t = sample_trace();
  std::stringstream buf;
  write_trace_v2(t, buf);
  Trace u = read_trace_v2(buf);
  for (Rank r = 0; r < 3; ++r) {
    EXPECT_TRUE(u.placement().location(r) == t.placement().location(r));
  }
}

TEST(TraceIo, FileRoundTrip) {
  const ScratchDir scratch(testing::TempDir());
  const std::string path = scratch.file("trace.cstr");
  const Trace t = testutil::random_trace(4, /*extreme_doubles=*/true);
  write_trace_v2_file(t, path);
  EXPECT_TRUE(testutil::traces_equal(t, read_trace_v2_file(path)));
}

TEST(TraceIo, RejectsGarbage) {
  std::stringstream buf("this is not a trace");
  EXPECT_THROW(read_trace_v2(buf), std::invalid_argument);
}

TEST(TraceIo, RejectsTruncated) {
  Trace t = sample_trace();
  std::stringstream buf;
  write_trace_v2(t, buf);
  std::string data = buf.str();
  data.resize(data.size() / 2);
  std::stringstream cut(data);
  EXPECT_THROW(read_trace_v2(cut), std::invalid_argument);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_v2_file("/nonexistent/path/trace.bin"), std::invalid_argument);
}

}  // namespace
}  // namespace chronosync
