// Property suite: the v2 container round-trips randomized traces
// bit-exactly, and postmortem analyses — including the streaming out-of-core
// scan — are invariant under a round trip.
#include <gtest/gtest.h>

#include <sstream>

#include "../testutil/random_trace.hpp"
#include "analysis/clock_condition.hpp"
#include "analysis/clock_condition_stream.hpp"
#include "trace/stream_io.hpp"
#include "verify/clock_condition_oracle.hpp"

namespace chronosync {
namespace {

using testutil::random_trace;
using testutil::traces_equal;

class TraceRoundTrip : public testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceRoundTrip, BinaryV2Exact) {
  Trace t = random_trace(GetParam());
  std::stringstream buf;
  write_trace_v2(t, buf);
  EXPECT_TRUE(traces_equal(t, read_trace_v2(buf)));
}

TEST_P(TraceRoundTrip, BinaryV2SmallChunksExact) {
  // Tiny chunks force many chunk boundaries and per-chunk delta resets.
  Trace t = random_trace(GetParam());
  std::stringstream buf;
  write_trace_v2(t, buf, /*events_per_chunk=*/3);
  EXPECT_TRUE(traces_equal(t, read_trace_v2(buf)));
}

TEST_P(TraceRoundTrip, ExtremeDoublesAllFormats) {
  // Signed zeros, denormals, and range-end doubles survive every format —
  // v2 is the only one.
  Trace t = random_trace(GetParam(), /*extreme_doubles=*/true);
  std::stringstream buf;
  write_trace_v2(t, buf);
  EXPECT_TRUE(traces_equal(t, read_trace_v2(buf)));
}

TEST_P(TraceRoundTrip, AnalysisInvariant) {
  Trace t = random_trace(GetParam());
  std::stringstream buf;
  write_trace_v2(t, buf);
  Trace back = read_trace_v2(buf);
  const auto a = check_clock_condition(t, TimestampArray::from_local(t));
  const auto b = check_clock_condition(back, TimestampArray::from_local(back));
  EXPECT_EQ(a, b);
}

TEST_P(TraceRoundTrip, StreamingScanMatchesInMemory) {
  // The out-of-core scan over a v2 stream and the in-memory CSR scan both
  // equal the message-list oracle.
  Trace t = random_trace(GetParam());
  std::stringstream buf;
  write_trace_v2(t, buf, /*events_per_chunk=*/7);
  TraceReader reader(buf);
  const auto streamed = scan_clock_condition(reader);
  const TimestampArray local = TimestampArray::from_local(t);
  const auto oracle = verify::clock_condition_oracle(t, local, t.match_messages(),
                                                     derive_logical_messages(t));
  EXPECT_EQ(streamed, oracle);
  EXPECT_EQ(check_clock_condition(t, local), oracle);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceRoundTrip, testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace chronosync
