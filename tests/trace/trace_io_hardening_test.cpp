// Hardening regressions for the binary trace reader: truncation at every byte
// of an unseekable stream, forged count/length fields behind *valid*
// checksums (so the parser, not the CRC, must catch them before allocating),
// and non-seekable streams where the total size cannot be validated up front.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <streambuf>
#include <vector>

#include "../testutil/random_trace.hpp"
#include "../testutil/unseekable_buf.hpp"
#include "analysis/clock_condition_stream.hpp"
#include "common/crc32c.hpp"
#include "common/scratch_dir.hpp"
#include "common/varint.hpp"
#include "sync/clc_stream.hpp"
#include "topology/cluster.hpp"
#include "trace/stream_io.hpp"
#include "trace/trace_io_error.hpp"

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

std::string v2_blob() {
  std::stringstream buf;
  write_trace_v2(sample_trace(), buf);
  return buf.str();
}

struct Chunk {
  char kind;
  std::vector<std::uint8_t> payload;
};

/// Splits a well-formed v2 blob into its chunks (the 8-byte header skipped).
std::vector<Chunk> split(const std::string& blob) {
  std::vector<Chunk> chunks;
  std::size_t pos = 8;
  while (pos < blob.size()) {
    std::uint32_t len;
    std::memcpy(&len, blob.data() + pos + 1, 4);
    const auto* p = reinterpret_cast<const std::uint8_t*>(blob.data() + pos + 5);
    chunks.push_back({blob[pos], {p, p + len}});
    pos += 5 + len + 4;
  }
  return chunks;
}

/// Frames `chunks` as a v2 file with valid chunk CRCs and a recomputed
/// whole-file CRC in the footer, so a forged field is only caught by parsing.
std::string seal(std::vector<Chunk> chunks) {
  std::string out(8, '\0');
  std::memcpy(out.data(), &kTraceMagic, 4);
  std::memcpy(out.data() + 4, &kTraceVersion, 4);
  for (Chunk& c : chunks) {
    if (c.kind == 'Z') {
      const std::uint32_t file_crc = crc32c(0, out.data(), out.size());
      std::memcpy(c.payload.data() + c.payload.size() - 4, &file_crc, 4);
    }
    const auto len = static_cast<std::uint32_t>(c.payload.size());
    char hdr[5];
    hdr[0] = c.kind;
    std::memcpy(hdr + 1, &len, 4);
    const std::uint32_t crc = crc32c(crc32c(0, hdr, 5), c.payload.data(), c.payload.size());
    out.append(hdr, 5);
    out.append(reinterpret_cast<const char*>(c.payload.data()), c.payload.size());
    out.append(reinterpret_cast<const char*>(&crc), 4);
  }
  return out;
}

// Payload offsets of the sample trace's chunks: the meta chunk (timer
// "intel-tsc", 3 ranks with one-byte placements, 3 latencies, regions
// "main"/"halo") and each one-event event chunk (seq, rank, count, event).
constexpr std::size_t kMetaTimerLen = 0;
constexpr std::size_t kMetaRankCount = kMetaTimerLen + 1 + 9;         // 10
constexpr std::size_t kMetaRegionCount = kMetaRankCount + 1 + 9 + 24;  // 44
constexpr std::size_t kMetaRegion0Len = kMetaRegionCount + 1;         // 45
constexpr std::size_t kMetaBytes = kMetaRegion0Len + 2 * (1 + 4);     // 55
constexpr std::size_t kEventCount = 2;
constexpr std::size_t kEventType = 3;
constexpr std::size_t kMetaChunk = 0;
constexpr std::size_t kRank0Chunk = 1;

/// The sample blob with the one-byte varint at `off` of chunk `chunk`
/// replaced by the encoding of `value`, resealed.
std::string forge_varint(std::size_t chunk, std::size_t off, std::uint64_t value) {
  auto chunks = split(v2_blob());
  auto& payload = chunks[chunk].payload;
  std::vector<std::uint8_t> enc;
  put_uvarint(enc, value);
  payload.erase(payload.begin() + static_cast<std::ptrdiff_t>(off));
  payload.insert(payload.begin() + static_cast<std::ptrdiff_t>(off), enc.begin(), enc.end());
  return seal(std::move(chunks));
}

std::string patch_u32(std::string blob, std::size_t off, std::uint32_t v) {
  std::memcpy(blob.data() + off, &v, 4);
  return blob;
}

using testutil::UnseekableStringBuf;

/// The kind of TraceIoError `fn` throws; a test failure when it throws none.
template <typename Fn>
TraceIoErrorKind thrown_kind(Fn&& fn) {
  try {
    fn();
  } catch (const TraceIoError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "a forged blob was accepted";
  return TraceIoErrorKind::Io;
}

/// The kind of TraceIoError that reading `blob` raises, from a seekable
/// stream or, with `unseekable`, through UnseekableStringBuf.
TraceIoErrorKind read_error(const std::string& blob, bool unseekable = false) {
  std::stringstream seekable(blob);
  UnseekableStringBuf sb(blob);
  std::istream pipe(&sb);
  return thrown_kind(
      [&] { read_trace_v2(unseekable ? pipe : static_cast<std::istream&>(seekable)); });
}

/// The kind of TraceIoError the index pass raises on `blob`.
TraceIoErrorKind index_error(const std::string& blob) {
  std::stringstream in(blob);
  return thrown_kind([&] { index_trace_v2(in); });
}

TEST(TraceIoHardening, SanityOffsetsMatchFormat) {
  // If the sample trace or the v2 layout changes, the forging offsets above
  // must be revisited; this guards them and the resealing helper.
  const std::string blob = v2_blob();
  const auto chunks = split(blob);
  EXPECT_EQ(seal(chunks), blob);
  ASSERT_EQ(chunks.size(), 5u);
  EXPECT_EQ(chunks[kMetaChunk].kind, 'M');
  EXPECT_EQ(chunks[kRank0Chunk].kind, 'E');
  EXPECT_EQ(chunks.back().kind, 'Z');
  const auto& meta = chunks[kMetaChunk].payload;
  ASSERT_EQ(meta.size(), kMetaBytes);
  EXPECT_EQ(meta[kMetaTimerLen], 9u);
  EXPECT_EQ(meta[kMetaRankCount], 3u);
  EXPECT_EQ(meta[kMetaRegionCount], 2u);
  EXPECT_EQ(meta[kMetaRegion0Len], 4u);
  const auto& events = chunks[kRank0Chunk].payload;
  EXPECT_EQ(events[kEventCount], 1u);
  EXPECT_EQ(events[kEventType], static_cast<std::uint8_t>(EventType::Send));
}

TEST(TraceIoHardening, TruncationAtEveryByteIsRejected) {
  // Covers every section boundary — header, chunk framing, meta fields,
  // event payloads, footer — on a stream whose size the reader cannot learn.
  const std::string blob = v2_blob();
  for (std::size_t n = 0; n < blob.size(); ++n) {
    UnseekableStringBuf sb(blob.substr(0, n));
    std::istream cut(&sb);
    EXPECT_THROW(read_trace_v2(cut), TraceIoError) << "prefix length " << n;
  }
}

TEST(TraceIoHardening, ForgedTimerLengthIsRejected) {
  const std::string blob = forge_varint(kMetaChunk, kMetaTimerLen, 0xFFFFFFFFu);
  EXPECT_EQ(read_error(blob), TraceIoErrorKind::Malformed);
  EXPECT_EQ(index_error(blob), TraceIoErrorKind::Malformed);
}

TEST(TraceIoHardening, ForgedRankCountIsRejected) {
  // Rejected before the placement vector is sized from the count.
  const std::string blob = forge_varint(kMetaChunk, kMetaRankCount, 0x7FFFFFFFu);
  EXPECT_EQ(read_error(blob), TraceIoErrorKind::Malformed);
  EXPECT_EQ(index_error(blob), TraceIoErrorKind::Malformed);
}

TEST(TraceIoHardening, ForgedRegionCountIsRejected) {
  const std::string blob = forge_varint(kMetaChunk, kMetaRegionCount, 0x40000000u);
  EXPECT_EQ(read_error(blob), TraceIoErrorKind::Malformed);
  EXPECT_EQ(index_error(blob), TraceIoErrorKind::Malformed);
}

TEST(TraceIoHardening, ForgedRegionNameLengthIsRejected) {
  const std::string blob = forge_varint(kMetaChunk, kMetaRegion0Len, 0xFFFFFF00u);
  EXPECT_EQ(read_error(blob), TraceIoErrorKind::Malformed);
  EXPECT_EQ(index_error(blob), TraceIoErrorKind::Malformed);
}

TEST(TraceIoHardening, ForgedEventCountIsRejected) {
  // 2^32 events would reserve ~340 GB if the count were trusted.
  const std::string blob = forge_varint(kRank0Chunk, kEventCount, 1ull << 32);
  EXPECT_EQ(read_error(blob), TraceIoErrorKind::Malformed);
  EXPECT_EQ(index_error(blob), TraceIoErrorKind::Malformed);
}

TEST(TraceIoHardening, AbsurdEventCountIsRejected) {
  // Large enough that count * event_size overflows 64 bits.
  const std::string blob = forge_varint(kRank0Chunk, kEventCount, ~0ull);
  EXPECT_EQ(read_error(blob), TraceIoErrorKind::Malformed);
  EXPECT_EQ(index_error(blob), TraceIoErrorKind::Malformed);
}

TEST(TraceIoHardening, InvalidEventTypeIsRejected) {
  // The type is a raw byte, which a one-byte varint rewrites verbatim.  The
  // index pass never decodes events; the decoding reader must object.
  const std::string blob = forge_varint(kRank0Chunk, kEventType, 0x7Fu);
  EXPECT_EQ(read_error(blob), TraceIoErrorKind::Malformed);
  EXPECT_EQ(read_error(blob, /*unseekable=*/true), TraceIoErrorKind::Malformed);
}

TEST(TraceIoHardening, UnseekableStreamParsesValidTrace) {
  const Trace t = sample_trace();
  UnseekableStringBuf sb(v2_blob());
  std::istream in(&sb);
  EXPECT_TRUE(testutil::traces_equal(t, read_trace_v2(in)));
}

TEST(TraceIoHardening, UnseekableStreamParsesValidV2Trace) {
  // A randomized trace cut into many small chunks, so chunk framing, CRCs
  // and the footer all straddle the 64-byte refills of the unseekable buffer.
  std::uint64_t seed = 1;
  while (testutil::random_trace(seed).total_events() < 100) ++seed;
  const Trace t = testutil::random_trace(seed);
  std::stringstream buf;
  write_trace_v2(t, buf, /*events_per_chunk=*/3);
  UnseekableStringBuf sb(buf.str());
  std::istream in(&sb);
  EXPECT_TRUE(testutil::traces_equal(t, read_trace_v2(in)));
}

TEST(TraceIoHardening, UnseekableStreamRejectsForgedCountsQuickly) {
  // Without a known stream size the reader cannot pre-validate a chunk's
  // payload_len.  Above the 64 MiB cap it is refused outright; below it, the
  // allocation stays bounded by the cap and the short stream fails at EOF.
  constexpr std::size_t kMetaLenField = 8 + 1;
  EXPECT_EQ(read_error(patch_u32(v2_blob(), kMetaLenField, 0xFFFFFFFFu), /*unseekable=*/true),
            TraceIoErrorKind::Malformed);
  EXPECT_EQ(read_error(patch_u32(v2_blob(), kMetaLenField, 1u << 25), /*unseekable=*/true),
            TraceIoErrorKind::Truncated);
}

TEST(TraceIoHardening, UnknownVersionIsRejected) {
  EXPECT_EQ(read_error(patch_u32(v2_blob(), 4, 99u)), TraceIoErrorKind::BadVersion);
  EXPECT_EQ(index_error(patch_u32(v2_blob(), 4, 99u)), TraceIoErrorKind::BadVersion);
}

TEST(TraceIoHardening, DuplicateRegionNameIsRejectedByEveryReader) {
  // Region 1 renamed from "halo" to "main".  Events name regions by index, so
  // the meta chunk would give one region two ids; every reader of the
  // container must refuse it, and the windowed CLC must not write a trace
  // the whole-trace reader then rejects.
  auto chunks = split(v2_blob());
  auto& meta = chunks[kMetaChunk].payload;
  const std::size_t region1 = kMetaRegion0Len + 1 + 4 + 1;
  ASSERT_EQ(std::string(meta.begin() + region1, meta.begin() + region1 + 4), "halo");
  std::memcpy(meta.data() + region1, "main", 4);
  const std::string blob = seal(std::move(chunks));
  EXPECT_EQ(read_error(blob), TraceIoErrorKind::Malformed);
  EXPECT_EQ(index_error(blob), TraceIoErrorKind::Malformed);

  const ScratchDir scratch(testing::TempDir());
  const std::string in_path = scratch.file("in.cstr");
  const std::string out_path = scratch.file("out.cstr");
  std::ofstream(in_path, std::ios::binary) << blob;
  EXPECT_EQ(thrown_kind([&] { scan_clock_condition_file(in_path); }),
            TraceIoErrorKind::Malformed);
  EXPECT_EQ(thrown_kind([&] { clc_stream_file(in_path, out_path); }),
            TraceIoErrorKind::Malformed);
  EXPECT_FALSE(std::filesystem::exists(out_path));
  EXPECT_FALSE(std::filesystem::exists(out_path + ".tmp"));
}

}  // namespace
}  // namespace chronosync
