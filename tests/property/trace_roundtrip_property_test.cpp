// Property suite: both trace serializations (binary v2, text) round-trip
// randomized traces bit-exactly, the formats agree with each other
// (differential loads), and postmortem analyses — including the streaming
// out-of-core scan — are invariant under a round trip.
#include <gtest/gtest.h>

#include <sstream>

#include "../testutil/random_trace.hpp"
#include "analysis/clock_condition.hpp"
#include "analysis/clock_condition_stream.hpp"
#include "trace/otf_text.hpp"
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

TEST_P(TraceRoundTrip, TextExact) {
  Trace t = random_trace(GetParam());
  std::stringstream buf;
  write_text_trace(t, buf);
  EXPECT_TRUE(traces_equal(t, read_text_trace(buf)));
}

TEST_P(TraceRoundTrip, DifferentialBinaryVsText) {
  // The binary and text loads of one trace must produce identical objects.
  Trace t = random_trace(GetParam());
  std::stringstream bin;
  std::stringstream txt;
  write_trace_v2(t, bin);
  write_text_trace(t, txt);
  EXPECT_TRUE(traces_equal(read_trace_v2(bin), read_text_trace(txt)));
}

TEST_P(TraceRoundTrip, ExtremeDoublesAllFormats) {
  // Signed zeros, denormals, and range-end doubles survive every format.
  Trace t = random_trace(GetParam(), /*extreme_doubles=*/true);
  {
    std::stringstream buf;
    write_trace_v2(t, buf);
    EXPECT_TRUE(traces_equal(t, read_trace_v2(buf)));
  }
  {
    std::stringstream buf;
    write_text_trace(t, buf);
    EXPECT_TRUE(traces_equal(t, read_text_trace(buf)));
  }
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
