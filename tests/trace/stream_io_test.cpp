#include "trace/stream_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <sstream>

#include "../testutil/error_of.hpp"
#include "../testutil/random_trace.hpp"
#include "../testutil/spec_encoder.hpp"
#include "common/scratch_dir.hpp"
#include "topology/cluster.hpp"

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

Trace bulk_trace(int ranks, int events_per_rank) {
  Trace t(pinning::block(clusters::xeon_rwth(), ranks), {1e-7, 1e-6, 5e-6}, "bulk");
  t.intern_region("loop");
  for (Rank r = 0; r < ranks; ++r) {
    for (int i = 0; i < events_per_rank; ++i) {
      Event e;
      e.type = (i % 2 == 0) ? EventType::Enter : EventType::Exit;
      e.region = 0;
      e.local_ts = 0.5 + i * 1e-6 + r * 1e-8;
      e.true_ts = e.local_ts + 1e-9;
      e.thread = i % 3;
      t.events(r).push_back(e);
    }
  }
  return t;
}

TEST(StreamIo, RoundTripExact) {
  const Trace t = sample_trace();
  std::stringstream buf;
  write_trace_v2(t, buf);
  const Trace u = read_trace_v2(buf);
  EXPECT_EQ(u.ranks(), 3);
  EXPECT_EQ(u.timer_name(), "intel-tsc");
  EXPECT_EQ(u.total_events(), t.total_events());
  EXPECT_EQ(u.regions().size(), 2u);
  EXPECT_EQ(u.region_name(1), "halo");
  const Event& s = u.events(0)[0];
  EXPECT_EQ(s.type, EventType::Send);
  EXPECT_EQ(s.msg_id, 77);
  EXPECT_DOUBLE_EQ(s.local_ts, 1.25);
  const Event& c = u.events(2)[0];
  EXPECT_EQ(c.coll, CollectiveKind::Allreduce);
  EXPECT_EQ(c.coll_id, 3);
}

TEST(StreamIo, MetaAvailableBeforeEvents) {
  const Trace t = sample_trace();
  std::stringstream buf;
  write_trace_v2(t, buf);
  TraceReader reader(buf);
  EXPECT_EQ(reader.ranks(), 3);
  EXPECT_EQ(reader.meta().timer_name, "intel-tsc");
  EXPECT_EQ(reader.meta().regions.size(), 2u);
  EXPECT_DOUBLE_EQ(reader.meta().domain_min_latency[2], 4.29e-6);
  EXPECT_EQ(reader.events_read(), 0u);
}

TEST(StreamIo, StreamsRankByRank) {
  const Trace t = bulk_trace(4, 100);
  std::stringstream buf;
  write_trace_v2(t, buf, /*events_per_chunk=*/32);
  TraceReader reader(buf);
  ChunkRef ref;
  std::vector<EdgeRecord> records;
  Rank last = 0;
  std::uint64_t total = 0;
  std::vector<std::size_t> next(4, 0);
  while (reader.next_chunk(ref)) {
    EXPECT_GE(ref.rank, last);
    EXPECT_GT(ref.count, 0u);
    EXPECT_LE(ref.count, 32u);
    // Decoded in two pieces, as the compact records of the chunk's events.
    ASSERT_EQ(reader.events().left(), ref.count);
    records.resize(ref.count);
    const std::span<EdgeRecord> all(records);
    reader.events().decode(all.first(ref.count / 2));
    reader.events().decode(all.subspan(ref.count / 2));
    EXPECT_EQ(reader.events().left(), 0u);
    const auto& events = t.events(ref.rank);
    for (const EdgeRecord& rec : records) {
      EXPECT_TRUE(testutil::same_record(rec, testutil::edge_record_of(events[next[ref.rank]++])));
    }
    last = ref.rank;
    total += ref.count;
  }
  EXPECT_EQ(total, 400u);
  EXPECT_EQ(reader.events_read(), 400u);
  // After the footer, next_chunk() keeps returning false.
  EXPECT_FALSE(reader.next_chunk(ref));
}

TEST(StreamIo, EmptyRanksAndZeroRankTraces) {
  // A trace whose ranks have no events.
  Trace empty_events(pinning::block(clusters::xeon_rwth(), 3), {1e-7, 1e-6, 5e-6}, "idle");
  {
    std::stringstream buf;
    write_trace_v2(empty_events, buf);
    const Trace u = read_trace_v2(buf);
    EXPECT_EQ(u.ranks(), 3);
    EXPECT_EQ(u.total_events(), 0u);
  }
  // A default-constructed, zero-rank trace.
  {
    const Trace zero;
    std::stringstream buf;
    write_trace_v2(zero, buf);
    const Trace u = read_trace_v2(buf);
    EXPECT_EQ(u.ranks(), 0);
    EXPECT_EQ(u.total_events(), 0u);
  }
}

TEST(StreamIo, FileRoundTrip) {
  const ScratchDir scratch(testing::TempDir());
  const std::string path = scratch.file("trace.cstr");
  const Trace t = bulk_trace(2, 50);
  write_trace_v2_file(t, path);
  const Trace u = read_trace_v2_file(path);
  EXPECT_EQ(u.total_events(), t.total_events());
}

TEST(StreamIo, WriterEnforcesRankMajorOrder) {
  std::stringstream buf;
  TraceWriter w(buf, TraceMeta::of(sample_trace()));
  Event e;
  e.type = EventType::Enter;
  w.append(2, e);
  EXPECT_THROW(w.append(1, e), std::invalid_argument);  // rank going backwards
  EXPECT_THROW(w.append(3, e), std::invalid_argument);  // rank outside placement
  w.finish();
  EXPECT_THROW(w.append(2, e), std::invalid_argument);  // append after finish
  EXPECT_THROW(w.finish(), std::invalid_argument);      // double finish
}

TEST(StreamIo, UnfinishedWriterLeavesRejectedFile) {
  std::stringstream buf;
  {
    TraceWriter w(buf, TraceMeta::of(sample_trace()));
    Event e;
    e.type = EventType::Enter;
    w.append(0, e);
    // no finish(): footer missing
  }
  EXPECT_THROW(read_trace_v2(buf), TraceIoError);
}

TEST(StreamIo, WriterDestroyedMidChunkIsTypedTruncation) {
  // Destroying a writer with buffered (unflushed) events and no finish()
  // drops the partial chunk and the footer.  Both the sequential reader and
  // the index pass must report Truncated — never hand back a silently
  // shortened trace.
  const Trace t = bulk_trace(2, 100);
  std::stringstream buf;
  {
    TraceWriter w(buf, TraceMeta::of(t), /*events_per_chunk=*/64);
    for (Rank r = 0; r < t.ranks(); ++r) {
      for (const Event& e : t.events(r)) w.append(r, e);
    }
    EXPECT_FALSE(w.finished());
    // no finish(): rank 1's second chunk (36 events) is still buffered
  }
  try {
    TraceReader reader(buf);
    ChunkRef ref;
    std::vector<Event> events;
    while (reader.next_chunk(ref)) reader.append_events(events);
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_EQ(e.kind(), TraceIoErrorKind::Truncated);
  }
  buf.clear();
  buf.seekg(0);
  try {
    index_trace_v2(buf);
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_EQ(e.kind(), TraceIoErrorKind::Truncated);
  }
}

TEST(StreamIo, CompleteChunksWithoutFooterAreTruncated) {
  // All event chunks flushed and intact, only the footer absent: the most
  // deceptive truncation, since every byte present parses cleanly.
  const Trace t = bulk_trace(1, 64);
  std::stringstream buf;
  {
    TraceWriter w(buf, TraceMeta::of(t), /*events_per_chunk=*/64);
    for (const Event& e : t.events(0)) w.append(0, e);
    // exactly one full chunk was flushed; no finish()
  }
  try {
    index_trace_v2(buf);
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_EQ(e.kind(), TraceIoErrorKind::Truncated);
  }
}

TEST(StreamIo, IndexAndChunkReaderGiveRandomAccess) {
  const Trace t = bulk_trace(3, 500);
  const ScratchDir scratch(testing::TempDir());
  const std::string path = scratch.file("trace.cstr");
  write_trace_v2_file(t, path, /*events_per_chunk=*/128);

  std::ifstream f(path, std::ios::binary);
  const TraceIndex idx = index_trace_v2(f);
  EXPECT_EQ(idx.total_events, t.total_events());
  ASSERT_EQ(idx.rank_events.size(), 3u);
  for (Rank r = 0; r < 3; ++r) EXPECT_EQ(idx.rank_events[r], t.events(r).size());
  ASSERT_EQ(idx.chunks.size(), 12u);  // ceil(500/128) = 4 chunks per rank

  // Chunks decode out of order and bit-exactly through the random-access path.
  ChunkReader reader(f, idx);
  std::vector<EdgeRecord> records;
  for (std::size_t c = idx.chunks.size(); c-- > 0;) {
    const ChunkRef& ref = idx.chunks[c];
    EventCursor events = reader.read(ref);
    ASSERT_EQ(events.left(), ref.count);
    records.resize(ref.count);
    events.decode(records);
    const std::size_t base = (c % 4) * 128;
    EXPECT_TRUE(testutil::same_bits(records.front().local_ts, t.events(ref.rank)[base].local_ts));
  }
}

// ChunkReader reads a chunk's whole frame in one read, at the length its
// index entry gives, and still checks that length, the CRC, the kind and the
// head against the entry, and the payload cap before it reads.
TEST(StreamIo, ChunkReaderChecksEachFrameAgainstItsIndexEntry) {
  const Trace t = bulk_trace(2, 300);
  std::stringstream v2;
  write_trace_v2(t, v2, /*events_per_chunk=*/100);
  const std::string bytes = v2.str();
  const TraceIndex idx = index_trace_v2(v2);
  ASSERT_EQ(idx.chunks.size(), 6u);
  const ChunkRef good = idx.chunks[2];
  using testutil::error_of;
  const auto read_with = [&](const std::string& blob, const ChunkRef& ref) {
    return error_of([&] {
      std::stringstream in(blob);
      ChunkReader(in, idx).read(ref);
    });
  };
  EXPECT_EQ(read_with(bytes, good), std::nullopt);

  std::string flipped = bytes;  // one payload byte changed after indexing
  flipped[good.offset + 5 + good.payload_len / 2] ^= 0x10;
  EXPECT_EQ(read_with(flipped, good), TraceIoErrorKind::BadChecksum);

  ChunkRef ref = good;
  ref.payload_len -= 1;  // the frame's stored length disagrees
  EXPECT_EQ(read_with(bytes, ref), TraceIoErrorKind::Malformed);
  ref = good;
  ref.seq += 1;
  EXPECT_EQ(read_with(bytes, ref), TraceIoErrorKind::Malformed);
  ref = good;
  ref.offset = idx.chunks[3].offset;  // a valid chunk, but not this entry's
  EXPECT_EQ(read_with(bytes, ref), TraceIoErrorKind::Malformed);
  ref = good;
  ref.payload_len = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(read_with(bytes, ref), TraceIoErrorKind::Malformed);
  ref = idx.chunks.back();
  ref.offset = bytes.size() - 8;  // runs past the end of the file
  EXPECT_EQ(read_with(bytes, ref), TraceIoErrorKind::Truncated);
}

TEST(StreamIo, IndexOffsetsStartFromStreamPosition) {
  // A stream handed over mid-file: the chunk offsets must still be absolute,
  // so that ChunkReader's seeks land on the chunks.
  const Trace t = bulk_trace(3, 200);
  std::stringstream v2;
  write_trace_v2(t, v2, /*events_per_chunk=*/64);
  const std::string junk = "junk before the trace";
  const ScratchDir scratch(testing::TempDir());
  const std::string path = scratch.file("embedded.cstr");
  std::ofstream(path, std::ios::binary) << junk << v2.str();

  std::ifstream f(path, std::ios::binary);
  f.seekg(static_cast<std::streamoff>(junk.size()));
  const TraceIndex idx = index_trace_v2(f);
  ASSERT_EQ(idx.chunks.size(), 12u);  // ceil(200/64) = 4 chunks per rank
  EXPECT_GT(idx.chunks.front().offset, junk.size());

  ChunkReader reader(f, idx);
  std::vector<Event> block;
  std::vector<std::size_t> next(3, 0);
  for (const ChunkRef& ref : idx.chunks) {
    block.resize(ref.count);
    reader.read(ref).decode(block);
    const auto& events = t.events(ref.rank);
    ASSERT_LE(next[ref.rank] + block.size(), events.size());
    EXPECT_TRUE(std::equal(block.begin(), block.end(),
                           events.begin() + static_cast<std::ptrdiff_t>(next[ref.rank]),
                           testutil::same_event));
    next[ref.rank] += block.size();
  }
  for (Rank r = 0; r < 3; ++r) EXPECT_EQ(next[r], t.events(r).size());
}

TEST(StreamIo, RejectsGarbage) {
  std::stringstream buf("this is definitely not a trace at all");
  try {
    read_trace_v2(buf);
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_EQ(e.kind(), TraceIoErrorKind::BadMagic);
  }
}

TEST(StreamIo, RejectsV1HeaderThroughV2Reader) {
  // The retired fixed-width v1 container shared the magic; only the version
  // field told them apart.
  const std::uint32_t v1_header[2] = {kTraceMagic, 1};
  std::stringstream buf(std::string(reinterpret_cast<const char*>(v1_header), 8));
  try {
    read_trace_v2(buf);
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_EQ(e.kind(), TraceIoErrorKind::BadVersion);
  }
}

TEST(StreamIo, RejectsTruncationAnywhere) {
  const Trace t = sample_trace();
  std::stringstream buf;
  write_trace_v2(t, buf);
  const std::string blob = buf.str();
  // Every strict prefix must be rejected: the footer (count + whole-file CRC)
  // makes truncation detectable at any byte.
  for (std::size_t n = 0; n < blob.size(); ++n) {
    std::stringstream cut(blob.substr(0, n));
    EXPECT_THROW(read_trace_v2(cut), TraceIoError) << "prefix length " << n;
  }
}

TEST(StreamIo, RejectsSingleBitFlipAnywhere) {
  const Trace t = sample_trace();
  std::stringstream buf;
  write_trace_v2(t, buf);
  const std::string blob = buf.str();
  for (std::size_t byte = 0; byte < blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = blob;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      std::stringstream in(mutated);
      EXPECT_THROW(read_trace_v2(in), TraceIoError)
          << "flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(StreamIo, RejectsTrailingData) {
  const Trace t = sample_trace();
  std::stringstream buf;
  write_trace_v2(t, buf);
  std::string blob = buf.str();
  blob += "extra";
  std::stringstream in(blob);
  try {
    read_trace_v2(in);
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_EQ(e.kind(), TraceIoErrorKind::Malformed);
  }
}

TEST(StreamIo, MissingFileThrowsIoError) {
  try {
    read_trace_v2_file("/nonexistent/path/trace_v2.bin");
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_EQ(e.kind(), TraceIoErrorKind::Io);
  }
}

TEST(StreamIo, V2IsSmallerThanV1) {
  // Delta + varint encoding must stay under half the 68-byte fixed-width
  // record of the retired v1 layout on a realistic monotone-timestamp trace.
  const Trace t = bulk_trace(4, 2000);
  std::stringstream v2;
  write_trace_v2(t, v2);
  EXPECT_LT(v2.str().size(), t.total_events() * 34);
}

/// Every event type and collective kind, with the values a delta or zigzag
/// coder gets wrong first: int64 extremes and negative deltas for msg_id and
/// coll_id, NaN, infinities, denormals and -0 timestamps, 32-bit extremes in
/// the plain fields, and empty ranks between and after the busy ones.
Trace edge_value_trace() {
  using I64 = std::numeric_limits<std::int64_t>;
  using I32 = std::numeric_limits<std::int32_t>;
  Trace t(pinning::block(clusters::xeon_rwth(), 5), {1e-7, 1e-6, 5e-6}, "edges");
  t.intern_region("r");
  const double stamps[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           1.5};
  const std::int64_t ids[] = {I64::min(), I64::max(), -1, 0, I64::min(), 7, -9, I64::max(), 1};
  const std::int32_t smalls[] = {I32::min(), I32::max(), -1, 0, 1};
  int k = 0;
  for (Rank r : {0, 2, 3}) {
    for (int type = 0; type <= static_cast<int>(EventType::BarrierExit); ++type) {
      for (int coll = 0; coll <= static_cast<int>(CollectiveKind::Alltoall); ++coll, ++k) {
        Event e;
        e.type = static_cast<EventType>(type);
        e.coll = static_cast<CollectiveKind>(coll);
        e.local_ts = stamps[k % std::size(stamps)];
        e.true_ts = stamps[(k * 7 + 3) % std::size(stamps)];
        e.msg_id = ids[k % std::size(ids)];
        e.coll_id = ids[(k * 5 + 2) % std::size(ids)];
        e.region = smalls[k % std::size(smalls)];
        e.peer = smalls[(k + 1) % std::size(smalls)];
        e.tag = smalls[(k + 2) % std::size(smalls)];
        e.bytes = k % 3 == 0 ? std::numeric_limits<std::uint32_t>::max()
                             : static_cast<std::uint32_t>(k);
        e.root = smalls[(k + 3) % std::size(smalls)];
        e.omp_instance = smalls[(k + 4) % std::size(smalls)];
        e.thread = smalls[(k * 3) % std::size(smalls)];
        t.events(r).push_back(e);
      }
    }
  }
  return t;
}

TEST(StreamIo, WriterBytesMatchSpecOracle) {
  std::vector<Trace> traces;
  traces.push_back(edge_value_trace());
  traces.push_back(sample_trace());
  traces.push_back(Trace(pinning::block(clusters::xeon_rwth(), 3), {1e-7, 1e-6, 5e-6}, "idle"));
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    traces.push_back(testutil::random_trace(seed, seed % 2 == 0));
  }
  int compared = 0;
  for (const Trace& t : traces) {
    // 16384 is the default of older writers, whose files stay readable.
    for (const std::size_t per_chunk :
         {std::size_t{1}, std::size_t{3}, kDefaultEventsPerChunk, std::size_t{16384}}) {
      std::stringstream buf;
      write_trace_v2(t, buf, per_chunk);
      const std::string got = buf.str();
      const std::string want = testutil::encode_v2_spec(t, per_chunk);
      ASSERT_EQ(got.size(), want.size()) << "trace " << compared / 4 << ", " << per_chunk;
      EXPECT_TRUE(got == want) << "trace " << compared / 4 << ", " << per_chunk
                               << " events per chunk: first difference at byte "
                               << std::mismatch(got.begin(), got.end(), want.begin()).first -
                                      got.begin();
      std::stringstream again(got);
      EXPECT_TRUE(testutil::traces_equal(read_trace_v2(again), t));
      ++compared;
    }
  }
  EXPECT_EQ(compared, 4 * 43);
}

TEST(StreamIo, BytesWrittenMatchesStream) {
  const Trace t = sample_trace();
  std::stringstream buf;
  TraceWriter w(buf, TraceMeta::of(t));
  for (Rank r = 0; r < t.ranks(); ++r) {
    for (const Event& e : t.events(r)) w.append(r, e);
  }
  w.finish();
  EXPECT_EQ(w.bytes_written(), buf.str().size());
  EXPECT_EQ(w.events_written(), t.total_events());
}

}  // namespace
}  // namespace chronosync
