// Deterministic mutation corpus for the trace readers.  Seeds a set of valid
// blobs in both formats, then applies structured mutations — single-bit
// flips, truncations, duplicated/removed/reordered chunks, corrupted CRC
// fields, and plain garbage — and asserts the readers ALWAYS fail with a
// typed TraceIoError (v2: every mutation is detectable thanks to the chunk
// and file checksums) or, for the unchecksummed text format, either parse
// successfully or throw TraceIoError.  The format-sniffing clock-condition
// scan, whose text fallback builds a ReplaySchedule from whatever parsed, is
// held to the same rule, and so is the windowed CLC (clc_stream_file), whose
// merge re-parses raw event bytes; it must also leave no file behind when it
// fails.  No mutation may crash, abort, or throw anything else; the suite is
// also run under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../testutil/random_trace.hpp"
#include "analysis/clock_condition_stream.hpp"
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "common/scratch_dir.hpp"
#include "sync/clc_stream.hpp"
#include "trace/otf_text.hpp"
#include "trace/stream_io.hpp"
#include "trace/trace_io_error.hpp"

namespace chronosync {
namespace {

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
  return feed(blob, [](std::istream& in) { scan_clock_condition(in); });
}

Outcome feed_text(const std::string& blob) {
  return feed(blob, [](std::istream& in) { read_text_trace(in); });
}

/// v2 is fully checksummed: every mutation must yield a TraceIoError.
void expect_v2_rejected(const std::string& blob, const std::string& context) {
  const Outcome got = feed_v2(blob);
  if (got == Outcome::Parsed) {
    ADD_FAILURE() << "v2 reader accepted a mutated blob: " << context;
  } else if (got == Outcome::WrongException) {
    ADD_FAILURE() << "v2 reader threw something other than TraceIoError: " << context;
  }
}

/// Text carries no checksums, so a mutation may produce a different but
/// well-formed blob; the reader must still never crash or throw a foreign
/// exception type.
template <typename FeedFn>
void expect_no_crash(FeedFn&& feed_fn, const std::string& blob, const std::string& context) {
  if (feed_fn(blob) == Outcome::WrongException) {
    ADD_FAILURE() << "reader threw something other than TraceIoError: " << context;
  }
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

struct Corpus {
  std::string v2;
  std::string text;
};

Corpus make_corpus(std::uint64_t seed, bool extreme) {
  const Trace t = random_trace(seed, extreme);
  Corpus c;
  std::stringstream b2;
  std::stringstream bt;
  write_trace_v2(t, b2, /*events_per_chunk=*/5);  // many chunk boundaries
  write_text_trace(t, bt);
  c.v2 = b2.str();
  c.text = bt.str();
  return c;
}

constexpr std::uint64_t kSeeds[] = {3, 17, 42};

TEST(TraceFuzz, SeedBlobsParseCleanly) {
  for (std::uint64_t seed : kSeeds) {
    const Corpus c = make_corpus(seed, seed % 2 == 0);
    EXPECT_EQ(feed_v2(c.v2), Outcome::Parsed);
    EXPECT_EQ(feed_text(c.text), Outcome::Parsed);
    EXPECT_EQ(feed_scan(c.v2), Outcome::Parsed);
    EXPECT_EQ(feed_scan(c.text), Outcome::Parsed);
  }
}

TEST(TraceFuzz, BitFlips) {
  for (std::uint64_t seed : kSeeds) {
    const Corpus c = make_corpus(seed, seed % 2 == 0);
    Rng rng(seed * 7919 + 1);
    for (int i = 0; i < 1200; ++i) {
      const std::size_t byte = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(c.v2.size()) - 1));
      const int bit = static_cast<int>(rng.uniform_int(0, 7));
      std::string m = c.v2;
      m[byte] = static_cast<char>(m[byte] ^ (1 << bit));
      expect_v2_rejected(m, "v2 flip byte " + std::to_string(byte) + " bit " +
                                std::to_string(bit) + " seed " + std::to_string(seed));
    }
    for (int i = 0; i < 600; ++i) {
      const std::size_t byte = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(c.text.size()) - 1));
      const int bit = static_cast<int>(rng.uniform_int(0, 7));
      std::string m = c.text;
      m[byte] = static_cast<char>(m[byte] ^ (1 << bit));
      const std::string context = "text flip byte " + std::to_string(byte) + " bit " +
                                  std::to_string(bit) + " seed " + std::to_string(seed);
      expect_no_crash(feed_text, m, context);
      expect_no_crash(feed_scan, m, context);
    }
  }
}

TEST(TraceFuzz, Truncations) {
  for (std::uint64_t seed : kSeeds) {
    const Corpus c = make_corpus(seed, false);
    Rng rng(seed * 104729 + 2);
    // v2: every strict prefix must throw.
    for (int i = 0; i < 400; ++i) {
      const std::size_t n = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(c.v2.size()) - 1));
      expect_v2_rejected(c.v2.substr(0, n),
                         "v2 prefix " + std::to_string(n) + " seed " + std::to_string(seed));
    }
    // Text may truncate exactly at a line boundary, which legitimately
    // parses; only the no-crash guarantee applies.
    for (int i = 0; i < 300; ++i) {
      const std::size_t n = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(c.text.size()) - 1));
      expect_no_crash(feed_text, c.text.substr(0, n),
                      "text prefix " + std::to_string(n) + " seed " + std::to_string(seed));
    }
  }
}

TEST(TraceFuzz, DuplicatedChunks) {
  for (std::uint64_t seed : kSeeds) {
    const Corpus c = make_corpus(seed, false);
    const auto spans = chunk_spans(c.v2);
    for (const ChunkSpan& s : spans) {
      // A duplicated chunk is CRC-valid, so only the sequence numbers, the
      // footer counters, and the whole-file CRC can catch it.
      std::string m = c.v2;
      m.insert(s.off + s.size, c.v2.substr(s.off, s.size));
      expect_v2_rejected(m, std::string("duplicated '") + s.kind + "' chunk at " +
                                std::to_string(s.off) + " seed " + std::to_string(seed));
    }
  }
}

TEST(TraceFuzz, RemovedChunks) {
  for (std::uint64_t seed : kSeeds) {
    const Corpus c = make_corpus(seed, false);
    const auto spans = chunk_spans(c.v2);
    for (const ChunkSpan& s : spans) {
      std::string m = c.v2;
      m.erase(s.off, s.size);
      expect_v2_rejected(m, std::string("removed '") + s.kind + "' chunk at " +
                                std::to_string(s.off) + " seed " + std::to_string(seed));
    }
  }
}

TEST(TraceFuzz, ReorderedChunks) {
  for (std::uint64_t seed : kSeeds) {
    const Corpus c = make_corpus(seed, false);
    const auto spans = chunk_spans(c.v2);
    for (std::size_t i = 0; i + 1 < spans.size(); ++i) {
      const ChunkSpan& a = spans[i];
      const ChunkSpan& b = spans[i + 1];
      std::string m = c.v2.substr(0, a.off) + c.v2.substr(b.off, b.size) +
                      c.v2.substr(a.off, a.size) + c.v2.substr(b.off + b.size);
      expect_v2_rejected(m, "swapped chunks " + std::to_string(i) + "/" +
                                std::to_string(i + 1) + " seed " + std::to_string(seed));
    }
  }
}

TEST(TraceFuzz, CorruptedChunkCrcFields) {
  for (std::uint64_t seed : kSeeds) {
    const Corpus c = make_corpus(seed, false);
    for (const ChunkSpan& s : chunk_spans(c.v2)) {
      std::string m = c.v2;
      // Invert the entire trailing CRC field of the chunk.
      for (std::size_t b = s.off + s.size - 4; b < s.off + s.size; ++b) {
        m[b] = static_cast<char>(~m[b]);
      }
      expect_v2_rejected(m, std::string("corrupted CRC of '") + s.kind + "' chunk at " +
                                std::to_string(s.off) + " seed " + std::to_string(seed));
    }
  }
}

TEST(TraceFuzz, RandomGarbage) {
  Rng rng(20260806);
  for (int i = 0; i < 200; ++i) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 4096));
    std::string blob(n, '\0');
    for (auto& ch : blob) ch = static_cast<char>(rng.uniform_int(0, 255));
    const std::string context = "garbage #" + std::to_string(i);
    EXPECT_NE(feed_v2(blob), Outcome::WrongException) << context;
    EXPECT_NE(feed_scan(blob), Outcome::WrongException) << context;
    // Garbage essentially never reproduces a valid header, but the invariant
    // we assert is typed-failure, not which kind.
    expect_no_crash(feed_text, blob, context);
  }
}

TEST(TraceFuzz, GarbageAppendedToValidBlob) {
  for (std::uint64_t seed : kSeeds) {
    const Corpus c = make_corpus(seed, false);
    Rng rng(seed + 31);
    std::string tail(64, '\0');
    for (auto& ch : tail) ch = static_cast<char>(rng.uniform_int(0, 255));
    expect_v2_rejected(c.v2 + tail, "v2 with trailing garbage, seed " + std::to_string(seed));
    expect_no_crash(feed_text, c.text + tail, "text with trailing garbage");
  }
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
  opt.max_outstanding_msgs = 4;  // the message spill file takes part too
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
    const Corpus c = make_corpus(seed, seed % 2 == 0);
    const std::string tag = " seed " + std::to_string(seed);
    EXPECT_TRUE(expect_windowed_clc_typed(dir, c.v2, "clean blob" + tag));
    Rng rng(seed * 6007 + 5);
    // Caught by the index pass: plain bit flips and truncations.
    for (int i = 0; i < 40; ++i) {
      std::string m = c.v2;
      const auto byte = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(m.size()) - 1));
      m[byte] = static_cast<char>(m[byte] ^ (1 << rng.uniform_int(0, 7)));
      EXPECT_FALSE(expect_windowed_clc_typed(dir, m, "flip byte " + std::to_string(byte) + tag));
      const auto n = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(c.v2.size()) - 1));
      EXPECT_FALSE(
          expect_windowed_clc_typed(dir, c.v2.substr(0, n), "prefix " + std::to_string(n) + tag));
    }
    // Resealed flips inside event payloads reach the processing pass and
    // the merge, which must each parse them or reject them typed.
    std::vector<ChunkSpan> events;
    for (const ChunkSpan& s : chunk_spans(c.v2)) {
      if (s.kind == 'E') events.push_back(s);
    }
    ASSERT_FALSE(events.empty());
    for (int i = 0; i < 150; ++i) {
      const ChunkSpan& s = events[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(events.size()) - 1))];
      std::string m = c.v2;
      const auto byte = s.off + 5 +
                        static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(s.size) - 10));
      m[byte] = static_cast<char>(m[byte] ^ (1 << rng.uniform_int(0, 7)));
      const std::string context = "resealed flip byte " + std::to_string(byte) + tag;
      const bool ok = expect_windowed_clc_typed(dir, reseal(m), context);
      ++(ok ? resealed_ok : resealed_rejected);
    }
  }
  // Not vacuous: resealed flips both reached the output and were rejected.
  EXPECT_GT(resealed_ok, 50u);
  EXPECT_GT(resealed_rejected, 50u);
}

}  // namespace
}  // namespace chronosync
