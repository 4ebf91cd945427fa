// Deterministic mutation corpus for the trace readers.  Seeds a set of valid
// v2 blobs, then applies structured mutations — single-bit flips,
// truncations, duplicated/removed/reordered chunks, corrupted CRC fields, and
// plain garbage — and asserts that the reader and the streaming
// clock-condition scan ALWAYS fail with a typed TraceIoError: every mutation
// is detectable thanks to the chunk and file checksums.  The scan is fed both
// ways: through a TraceReader (rank-major) and as a file through
// scan_clock_condition_file (indexed, then read in frontier order).  The windowed CLC
// (clc_stream_file), whose merge re-parses raw event bytes, must either
// succeed or throw TraceIoError, and must leave no file behind when it
// fails.  The chunk index is held to the reader on the same corpus: same
// error kind, and the same events from every indexed chunk; so is the reader
// on an unseekable stream, which decodes without the seekable count pass.
// No mutation may crash, abort, or throw anything else; the suite is also run
// under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "../testutil/error_of.hpp"
#include "../testutil/random_trace.hpp"
#include "../testutil/unseekable_buf.hpp"
#include "analysis/clock_condition_stream.hpp"
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "common/scratch_dir.hpp"
#include "sync/clc_stream.hpp"
#include "trace/stream_io.hpp"
#include "trace/trace_io_error.hpp"

namespace chronosync {
namespace {

using testutil::error_of;
using testutil::random_trace;

enum class Outcome { Parsed, IoError, WrongException };

template <typename ReadFn>
Outcome feed(const std::string& blob, ReadFn&& read) {
  std::stringstream in(blob);
  try {
    read(in);
    return Outcome::Parsed;
  } catch (const TraceIoError&) {
    return Outcome::IoError;
  } catch (...) {
    return Outcome::WrongException;
  }
}

Outcome feed_v2(const std::string& blob) {
  return feed(blob, [](std::istream& in) { read_trace_v2(in); });
}

Outcome feed_scan(const std::string& blob) {
  return feed(blob, [](std::istream& in) {
    TraceReader reader(in);
    scan_clock_condition(reader);
  });
}

/// Writes `blob` to the one file the file-fed scans read, in a scratch
/// directory shared by the whole test program; returns its path.
std::string scan_file_of(const std::string& blob) {
  static const ScratchDir dir(testing::TempDir());
  const std::string path = dir.file("fuzz_scan.cstr");
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(blob.data(), static_cast<std::streamsize>(blob.size()));
  return path;
}

Outcome feed_file_scan(const std::string& blob) {
  const std::string path = scan_file_of(blob);
  try {
    scan_clock_condition_file(path);
    return Outcome::Parsed;
  } catch (const TraceIoError&) {
    return Outcome::IoError;
  } catch (...) {
    return Outcome::WrongException;
  }
}

void expect_io_error(Outcome got, const char* who, const std::string& context) {
  if (got == Outcome::Parsed) {
    ADD_FAILURE() << who << " accepted a mutated blob: " << context;
  } else if (got == Outcome::WrongException) {
    ADD_FAILURE() << who << " threw something other than TraceIoError: " << context;
  }
}

/// v2 is fully checksummed: every mutation must yield a TraceIoError, from
/// the reader and from the streaming scan in either order alike.
void expect_v2_rejected(const std::string& blob, const std::string& context) {
  expect_io_error(feed_v2(blob), "v2 reader", context);
  expect_io_error(feed_scan(blob), "clock-condition scan", context);
  expect_io_error(feed_file_scan(blob), "clock-condition file scan", context);
}

struct ChunkSpan {
  std::size_t off;   // offset of the kind byte
  std::size_t size;  // kind + len field + payload + crc
  char kind;
};

/// Walks the chunk framing of a well-formed v2 blob.
std::vector<ChunkSpan> chunk_spans(const std::string& blob) {
  std::vector<ChunkSpan> spans;
  std::size_t pos = 8;  // skip magic + version
  while (pos + 5 <= blob.size()) {
    std::uint32_t len;
    std::memcpy(&len, blob.data() + pos + 1, 4);
    const std::size_t total = 1 + 4 + static_cast<std::size_t>(len) + 4;
    spans.push_back({pos, total, blob[pos]});
    pos += total;
  }
  EXPECT_EQ(pos, blob.size()) << "seed blob has broken framing";
  return spans;
}

/// The v2 blob of a random trace, with many chunk boundaries.
std::string seed_blob(std::uint64_t seed, bool extreme) {
  std::stringstream buf;
  write_trace_v2(random_trace(seed, extreme), buf, /*events_per_chunk=*/5);
  return buf.str();
}

/// Recomputes every chunk CRC and the footer's whole-file CRC of a blob with
/// intact framing, so a payload mutation gets past the checksums to the
/// parsers behind them.
std::string reseal(std::string blob) {
  std::uint32_t file_crc = crc32c(0, blob.data(), 8);
  for (const ChunkSpan& s : chunk_spans(blob)) {
    char* chunk = blob.data() + s.off;
    const std::size_t crc_at = s.size - 4;
    if (s.kind == 'Z') std::memcpy(chunk + crc_at - 4, &file_crc, 4);
    const std::uint32_t crc = crc32c(0, chunk, crc_at);
    std::memcpy(chunk + crc_at, &crc, 4);
    if (s.kind != 'Z') file_crc = crc32c(file_crc, chunk, s.size);
  }
  return blob;
}

// -- mutation generators ------------------------------------------------------
//
// Each hands every mutant of `blob` to `visit` together with a description.

using Visit = std::function<void(const std::string& mutant, const std::string& what)>;

std::size_t random_index(Rng& rng, std::size_t size) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

void bit_flips(const std::string& blob, Rng& rng, int n, const Visit& visit) {
  for (int i = 0; i < n; ++i) {
    const std::size_t byte = random_index(rng, blob.size());
    const int bit = static_cast<int>(rng.uniform_int(0, 7));
    std::string m = blob;
    m[byte] = static_cast<char>(m[byte] ^ (1 << bit));
    visit(m, "flip byte " + std::to_string(byte) + " bit " + std::to_string(bit));
  }
}

void prefixes(const std::string& blob, Rng& rng, int n, const Visit& visit) {
  for (int i = 0; i < n; ++i) {
    const std::size_t len = random_index(rng, blob.size());
    visit(blob.substr(0, len), "prefix " + std::to_string(len));
  }
}

void duplicated_chunks(const std::string& v2, const Visit& visit) {
  for (const ChunkSpan& s : chunk_spans(v2)) {
    std::string m = v2;
    m.insert(s.off + s.size, v2.substr(s.off, s.size));
    visit(m, std::string("duplicated '") + s.kind + "' chunk at " + std::to_string(s.off));
  }
}

void removed_chunks(const std::string& v2, const Visit& visit) {
  for (const ChunkSpan& s : chunk_spans(v2)) {
    std::string m = v2;
    m.erase(s.off, s.size);
    visit(m, std::string("removed '") + s.kind + "' chunk at " + std::to_string(s.off));
  }
}

void reordered_chunks(const std::string& v2, const Visit& visit) {
  const auto spans = chunk_spans(v2);
  for (std::size_t i = 0; i + 1 < spans.size(); ++i) {
    const ChunkSpan& a = spans[i];
    const ChunkSpan& b = spans[i + 1];
    visit(v2.substr(0, a.off) + v2.substr(b.off, b.size) + v2.substr(a.off, a.size) +
              v2.substr(b.off + b.size),
          "swapped chunks " + std::to_string(i) + "/" + std::to_string(i + 1));
  }
}

/// Inverts the entire trailing CRC field of each chunk in turn.
void corrupted_crcs(const std::string& v2, const Visit& visit) {
  for (const ChunkSpan& s : chunk_spans(v2)) {
    std::string m = v2;
    for (std::size_t b = s.off + s.size - 4; b < s.off + s.size; ++b) {
      m[b] = static_cast<char>(~m[b]);
    }
    visit(m, std::string("corrupted CRC of '") + s.kind + "' chunk at " + std::to_string(s.off));
  }
}

/// `n` bit flips inside event-chunk payloads, resealed so that they reach
/// the event decoders.
void resealed_event_flips(const std::string& v2, Rng& rng, int n, const Visit& visit) {
  std::vector<ChunkSpan> events;
  for (const ChunkSpan& s : chunk_spans(v2)) {
    if (s.kind == 'E') events.push_back(s);
  }
  ASSERT_FALSE(events.empty());
  for (int i = 0; i < n; ++i) {
    const ChunkSpan& s = events[random_index(rng, events.size())];
    std::string m = v2;
    const std::size_t byte = s.off + 5 + random_index(rng, s.size - 9);
    m[byte] = static_cast<char>(m[byte] ^ (1 << rng.uniform_int(0, 7)));
    visit(reseal(m), "resealed flip byte " + std::to_string(byte));
  }
}

std::string random_bytes(Rng& rng, std::size_t n) {
  std::string blob(n, '\0');
  for (auto& ch : blob) ch = static_cast<char>(rng.uniform_int(0, 255));
  return blob;
}

constexpr std::uint64_t kSeeds[] = {3, 17, 42};

std::string seed_tag(std::uint64_t seed) { return " seed " + std::to_string(seed); }

/// expect_v2_rejected as a Visit, tagging each mutation with `tag`.
Visit v2_rejected(const std::string& tag) {
  return [tag](const std::string& m, const std::string& what) {
    expect_v2_rejected(m, what + tag);
  };
}

TEST(TraceFuzz, SeedBlobsParseCleanly) {
  for (std::uint64_t seed : kSeeds) {
    const std::string v2 = seed_blob(seed, seed % 2 == 0);
    EXPECT_EQ(feed_v2(v2), Outcome::Parsed);
    EXPECT_EQ(feed_scan(v2), Outcome::Parsed);
    EXPECT_EQ(feed_file_scan(v2), Outcome::Parsed);
  }
}

TEST(TraceFuzz, BitFlips) {
  for (std::uint64_t seed : kSeeds) {
    Rng rng(seed * 7919 + 1);
    bit_flips(seed_blob(seed, seed % 2 == 0), rng, 1200, v2_rejected(seed_tag(seed)));
  }
}

TEST(TraceFuzz, Truncations) {
  for (std::uint64_t seed : kSeeds) {
    Rng rng(seed * 104729 + 2);
    // Every strict prefix must throw.
    prefixes(seed_blob(seed, false), rng, 400, v2_rejected(seed_tag(seed)));
  }
}

TEST(TraceFuzz, DuplicatedChunks) {
  // A duplicated chunk is CRC-valid, so only the sequence numbers, the
  // footer counters, and the whole-file CRC can catch it.
  for (std::uint64_t seed : kSeeds) {
    duplicated_chunks(seed_blob(seed, false), v2_rejected(seed_tag(seed)));
  }
}

TEST(TraceFuzz, RemovedChunks) {
  for (std::uint64_t seed : kSeeds) {
    removed_chunks(seed_blob(seed, false), v2_rejected(seed_tag(seed)));
  }
}

TEST(TraceFuzz, ReorderedChunks) {
  for (std::uint64_t seed : kSeeds) {
    reordered_chunks(seed_blob(seed, false), v2_rejected(seed_tag(seed)));
  }
}

TEST(TraceFuzz, CorruptedChunkCrcFields) {
  for (std::uint64_t seed : kSeeds) {
    corrupted_crcs(seed_blob(seed, false), v2_rejected(seed_tag(seed)));
  }
}

TEST(TraceFuzz, RandomGarbage) {
  Rng rng(20260806);
  for (int i = 0; i < 200; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 4096));
    const std::string blob = random_bytes(rng, n);
    const std::string context = "garbage #" + std::to_string(i);
    // Garbage essentially never reproduces a valid header, but the invariant
    // we assert is typed-failure, not which kind.
    EXPECT_NE(feed_v2(blob), Outcome::WrongException) << context;
    EXPECT_NE(feed_scan(blob), Outcome::WrongException) << context;
    EXPECT_NE(feed_file_scan(blob), Outcome::WrongException) << context;
  }
}

TEST(TraceFuzz, GarbageAppendedToValidBlob) {
  for (std::uint64_t seed : kSeeds) {
    Rng rng(seed + 31);
    const std::string tail = random_bytes(rng, 64);
    expect_v2_rejected(seed_blob(seed, false) + tail,
                       "v2 with trailing garbage" + seed_tag(seed));
  }
}

enum class Verdict { Rejected, DecodeRejected, Accepted };

/// Holds the index pass and the event readers to one validator on `blob`:
/// when index_trace_v2 throws kind K, read_trace_v2 throws K, on a seekable
/// stream (which sizes the trace by a count pass first) and on an unseekable
/// one alike.  When the index accepts, ChunkReader::read on every ChunkRef
/// decodes, as Events, the events TraceReader::append_events decodes, and as
/// EdgeRecords their projection, or all three throw the kind read_trace_v2
/// throws; when nothing throws, both read_trace_v2 streams
/// yield the same trace.  The scan is held to the reader too: in rank-major
/// order and read from a file in frontier order, it throws the kind
/// read_trace_v2 throws, and otherwise both orders give one report.
Verdict expect_index_agrees(const std::string& blob, const std::string& context) {
  ClockConditionReport rank_major;
  const auto scan_kind = error_of([&] {
    std::stringstream scan_in(blob);
    TraceReader reader(scan_in);
    rank_major = scan_clock_condition(reader);
  });
  ClockConditionReport frontier;
  const auto file_scan_kind =
      error_of([&] { frontier = scan_clock_condition_file(scan_file_of(blob)); });
  std::stringstream in(blob);
  TraceIndex idx;
  const auto index_kind = error_of([&] { idx = index_trace_v2(in); });
  Trace whole_trace;
  const auto read_kind = error_of([&] {
    std::stringstream whole(blob);
    whole_trace = read_trace_v2(whole);
  });
  Trace piped_trace;
  const auto piped_kind = error_of([&] {
    testutil::UnseekableStringBuf buf(blob);
    std::istream pipe(&buf);
    piped_trace = read_trace_v2(pipe);
  });
  EXPECT_EQ(piped_kind, read_kind) << "seekable and unseekable reads disagree: " << context;
  EXPECT_EQ(scan_kind, read_kind) << "scan and reader disagree: " << context;
  EXPECT_EQ(file_scan_kind, read_kind) << "file scan and reader disagree: " << context;
  if (!read_kind) {
    EXPECT_EQ(frontier, rank_major) << "scan orders disagree: " << context;
  }
  if (index_kind) {
    EXPECT_EQ(read_kind, index_kind) << "index and reader disagree: " << context;
    return Verdict::Rejected;
  }
  std::stringstream seq_in(blob);
  TraceReader seq(seq_in);
  ChunkReader random(in, idx);
  ChunkRef seq_ref;
  std::vector<Event> a;
  std::vector<Event> b;
  std::vector<EdgeRecord> c;
  for (const ChunkRef& ref : idx.chunks) {
    const auto seq_kind = error_of([&] {
      a.clear();
      EXPECT_TRUE(seq.next_chunk(seq_ref)) << context;
      seq.append_events(a);
    });
    // One read, decoded in both forms: a cursor copy decodes independently.
    EventCursor full;
    const auto read_chunk_kind = error_of([&] { full = random.read(ref); });
    EventCursor compact = full;
    const auto random_kind = error_of([&] {
      b.resize(ref.count);
      full.decode(b);
    });
    const auto compact_kind = error_of([&] {
      c.resize(ref.count);
      compact.decode(c);
    });
    EXPECT_EQ(read_chunk_kind, std::nullopt) << "chunk " << ref.seq << ": " << context;
    EXPECT_EQ(random_kind, seq_kind) << "chunk " << ref.seq << ": " << context;
    EXPECT_EQ(compact_kind, seq_kind) << "compact, chunk " << ref.seq << ": " << context;
    if (seq_kind) {
      EXPECT_EQ(read_kind, seq_kind) << context;
      return Verdict::DecodeRejected;
    }
    EXPECT_EQ(seq_ref.rank, ref.rank) << context;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end(), testutil::same_event))
        << "chunk " << ref.seq << ": " << context;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), c.begin(), c.end(),
                           [](const Event& x, const EdgeRecord& y) {
                             return testutil::same_record(testutil::edge_record_of(x), y);
                           }))
        << "compact, chunk " << ref.seq << ": " << context;
  }
  EXPECT_FALSE(seq.next_chunk(seq_ref)) << context;
  EXPECT_EQ(read_kind, std::nullopt) << context;
  EXPECT_TRUE(testutil::traces_equal(piped_trace, whole_trace)) << context;
  return Verdict::Accepted;
}

TEST(TraceFuzz, IndexAgreesWithReaders) {
  std::size_t verdicts[3] = {};
  Rng rng(20261017);
  for (std::uint64_t seed : kSeeds) {
    const std::string v2 = seed_blob(seed, seed % 2 == 0);
    const Visit agree = [&](const std::string& m, const std::string& what) {
      ++verdicts[static_cast<int>(expect_index_agrees(m, what + seed_tag(seed)))];
    };
    agree(v2, "clean blob");
    agree(v2 + random_bytes(rng, 64), "trailing garbage");
    bit_flips(v2, rng, 300, agree);
    prefixes(v2, rng, 100, agree);
    duplicated_chunks(v2, agree);
    removed_chunks(v2, agree);
    reordered_chunks(v2, agree);
    corrupted_crcs(v2, agree);
    resealed_event_flips(v2, rng, 150, agree);
  }
  for (int i = 0; i < 100; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 512));
    expect_index_agrees(random_bytes(rng, n), "garbage #" + std::to_string(i));
  }
  // Not vacuous: every branch of the contract was taken.
  EXPECT_GT(verdicts[static_cast<int>(Verdict::Rejected)], 1000u);
  EXPECT_GT(verdicts[static_cast<int>(Verdict::DecodeRejected)], 50u);
  EXPECT_GT(verdicts[static_cast<int>(Verdict::Accepted)], 50u);
}

/// Runs the windowed CLC over `blob`: it must either succeed, leaving a
/// readable output, or throw TraceIoError, leaving no output, temporary or
/// spill file.  Returns whether it succeeded.
bool expect_windowed_clc_typed(const ScratchDir& dir, const std::string& blob,
                               const std::string& context) {
  const std::string in_path = dir.file("fuzz_in.cstr");
  const std::string out_path = dir.file("fuzz_out.cstr");
  std::ofstream(in_path, std::ios::binary | std::ios::trunc)
      .write(blob.data(), static_cast<std::streamsize>(blob.size()));
  std::filesystem::remove(out_path);
  StreamClcOptions opt;
  opt.emit_batch = 8;
  bool ok = false;
  try {
    clc_stream_file(in_path, out_path, opt);
    ok = true;
  } catch (const TraceIoError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "windowed CLC threw something other than TraceIoError (" << e.what()
                  << "): " << context;
  }
  if (ok) {
    EXPECT_NO_THROW(read_trace_v2_file(out_path)) << context;
  } else {
    EXPECT_FALSE(std::filesystem::exists(out_path)) << "output left behind: " << context;
  }
  for (const char* suffix : {".tmp", ".ts-spill", ".msg-spill"}) {
    EXPECT_FALSE(std::filesystem::exists(out_path + suffix))
        << suffix << " left behind: " << context;
  }
  return ok;
}

TEST(TraceFuzz, WindowedClcSurvivesMutations) {
  const ScratchDir dir(testing::TempDir());
  std::size_t resealed_ok = 0, resealed_rejected = 0;
  for (std::uint64_t seed : kSeeds) {
    const std::string v2 = seed_blob(seed, seed % 2 == 0);
    const std::string tag = seed_tag(seed);
    EXPECT_TRUE(expect_windowed_clc_typed(dir, v2, "clean blob" + tag));
    Rng rng(seed * 6007 + 5);
    // Caught by the index pass: plain bit flips and truncations.
    const Visit rejected = [&](const std::string& m, const std::string& what) {
      EXPECT_FALSE(expect_windowed_clc_typed(dir, m, what + tag));
    };
    bit_flips(v2, rng, 40, rejected);
    prefixes(v2, rng, 40, rejected);
    // Resealed flips inside event payloads reach the processing pass and
    // the merge, which must each parse them or reject them typed.
    resealed_event_flips(v2, rng, 150, [&](const std::string& m, const std::string& what) {
      ++(expect_windowed_clc_typed(dir, m, what + tag) ? resealed_ok : resealed_rejected);
    });
  }
  // Not vacuous: resealed flips both reached the output and were rejected.
  EXPECT_GT(resealed_ok, 50u);
  EXPECT_GT(resealed_rejected, 50u);
}

}  // namespace
}  // namespace chronosync
