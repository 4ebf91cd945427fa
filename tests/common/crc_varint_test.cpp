#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "common/varint.hpp"

namespace chronosync {
namespace {

// RFC 3720 appendix B.4 test vectors (iSCSI CRC32C).
TEST(Crc32c, KnownVectors) {
  EXPECT_EQ(crc32c(0, "", 0), 0u);
  const std::string check = "123456789";
  EXPECT_EQ(crc32c(0, check.data(), check.size()), 0xE3069283u);
  const std::vector<std::uint8_t> zeros(32, 0x00);
  EXPECT_EQ(crc32c(0, zeros.data(), zeros.size()), 0x8A9136AAu);
  const std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(crc32c(0, ones.data(), ones.size()), 0x62A8AB43u);
  std::vector<std::uint8_t> ascending(32);
  for (std::size_t i = 0; i < 32; ++i) ascending[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(crc32c(0, ascending.data(), ascending.size()), 0x46DD794Eu);
}

// crc32c() may run on the CPU's CRC32 instruction; the slicing-by-8 table
// path is its oracle.  Every length up to 4 KiB at every 8-byte alignment,
// split at a random point, so the hardware path's byte-wise head and tail and
// its word loop all meet the table path; then lengths around and far past
// its three-stream loop (24 KiB blocks).
TEST(Crc32c, HardwareMatchesTablePath) {
  EXPECT_EQ(detail::crc32c_table(0, "", 0), 0u);
  const std::string check = "123456789";
  EXPECT_EQ(detail::crc32c_table(0, check.data(), check.size()), 0xE3069283u);
  const std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(detail::crc32c_table(0, ones.data(), ones.size()), 0x62A8AB43u);

  constexpr std::size_t kMaxLen = 4096;
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= kMaxLen; ++len) lengths.push_back(len);
  for (const std::size_t len : {24575, 24576, 24577, 24583, 49151, 49152, 49159, 100003, 262144}) {
    lengths.push_back(len);
  }
  Rng rng(0xC3C3);
  std::vector<std::uint8_t> buf(lengths.back() + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (std::size_t align = 0; align < 8; ++align) {
    const std::uint8_t* data = buf.data() + align;
    for (const std::size_t len : lengths) {
      const std::uint32_t seed = static_cast<std::uint32_t>(rng.next());
      const std::uint32_t want = detail::crc32c_table(seed, data, len);
      ASSERT_EQ(crc32c(seed, data, len), want) << "align " << align << " len " << len;
      const auto split = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(len)));
      const std::uint32_t head = crc32c(seed, data, split);
      ASSERT_EQ(crc32c(head, data + split, len - split), want)
          << "align " << align << " len " << len << " split " << split;
    }
  }
}

// crc32c_combine joins the CRCs of two pieces without reading the second
// again.  Both pieces' CRCs come from each path in turn, at random splits of
// inputs from empty through shorter than one 8 KiB stripe to several
// three-stripe blocks, and from a running value as well as from zero.
TEST(Crc32c, CombineMatchesConcatenation) {
  using Crc = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);
  const Crc paths[] = {&crc32c, &detail::crc32c_table};
  Rng rng(0xC0B1);
  std::vector<std::uint8_t> buf(3 * 24576 + 17);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (const Crc crc : paths) {
    for (const std::size_t len : {0, 1, 2, 7, 8, 9, 100, 4095, 8192, 24575, 24576, 24577,
                                  static_cast<int>(buf.size())}) {
      for (int trial = 0; trial < 8; ++trial) {
        const auto split = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(len)));
        const std::uint32_t seed = trial % 2 == 0 ? 0u : static_cast<std::uint32_t>(rng.next());
        const std::uint32_t want = crc(seed, buf.data(), len);
        const std::uint32_t head = crc(seed, buf.data(), split);
        const std::uint32_t tail = crc(0, buf.data() + split, len - split);
        ASSERT_EQ(crc32c_combine(head, tail, len - split), want)
            << "len " << len << " split " << split;
      }
    }
  }
  // The splits that empty one side.
  EXPECT_EQ(crc32c_combine(0, 0, 0), 0u);
  const std::uint32_t whole = crc32c(0, buf.data(), buf.size());
  EXPECT_EQ(crc32c_combine(whole, 0, 0), whole);
  EXPECT_EQ(crc32c_combine(0, whole, buf.size()), whole);
}

TEST(Crc32c, PartialUpdatesCompose) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32c(0, data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t crc = crc32c(0, data.data(), split);
    crc = crc32c(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::string data = "chronosync trace chunk payload";
  const std::uint32_t clean = crc32c(0, data.data(), data.size());
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
      EXPECT_NE(crc32c(0, data.data(), data.size()), clean)
          << "undetected flip at byte " << byte << " bit " << bit;
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
    }
  }
}

TEST(Varint, UnsignedRoundTripAcrossBoundaries) {
  const std::uint64_t cases[] = {
      0,      1,          127,        128,         16383,
      16384,  2097151,    2097152,    268435455,   268435456,
      1u << 31, (1ull << 32) - 1, 1ull << 32, (1ull << 56) - 1, 1ull << 56,
      std::numeric_limits<std::uint64_t>::max() - 1,
      std::numeric_limits<std::uint64_t>::max(),
  };
  for (std::uint64_t v : cases) {
    std::vector<std::uint8_t> buf;
    put_uvarint(buf, v);
    EXPECT_LE(buf.size(), 10u);
    const std::uint8_t* cur = buf.data();
    std::uint64_t back = 0;
    ASSERT_TRUE(get_uvarint(&cur, buf.data() + buf.size(), back)) << v;
    EXPECT_EQ(back, v);
    EXPECT_EQ(cur, buf.data() + buf.size()) << "decoder did not consume everything";
  }
}

TEST(Varint, SignedRoundTripIncludingExtremes) {
  const std::int64_t cases[] = {
      0,  1,  -1, 63, -64, 64,  -65, 8191, -8192,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(),
  };
  for (std::int64_t v : cases) {
    std::vector<std::uint8_t> buf;
    put_svarint(buf, v);
    const std::uint8_t* cur = buf.data();
    std::int64_t back = 0;
    ASSERT_TRUE(get_svarint(&cur, buf.data() + buf.size(), back)) << v;
    EXPECT_EQ(back, v);
  }
}

TEST(Varint, ZigzagKeepsSmallMagnitudesSmall) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
  for (std::int64_t v = -300; v <= 300; ++v) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
  std::vector<std::uint8_t> buf;
  put_svarint(buf, -3);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(Varint, DecoderRejectsTruncation) {
  std::vector<std::uint8_t> buf;
  put_uvarint(buf, std::numeric_limits<std::uint64_t>::max());
  for (std::size_t n = 0; n < buf.size(); ++n) {
    const std::uint8_t* cur = buf.data();
    std::uint64_t out = 0;
    EXPECT_FALSE(get_uvarint(&cur, buf.data() + n, out)) << "prefix " << n;
  }
}

TEST(Varint, DecoderRejectsOverlongEncodings) {
  // Eleven continuation bytes: more than a u64 can hold.
  std::vector<std::uint8_t> overlong(11, 0x80);
  overlong.push_back(0x00);
  const std::uint8_t* cur = overlong.data();
  std::uint64_t out = 0;
  EXPECT_FALSE(get_uvarint(&cur, overlong.data() + overlong.size(), out));

  // Exactly ten bytes but the last one carries bits beyond bit 63.
  std::vector<std::uint8_t> toobig(9, 0x80);
  toobig.push_back(0x02);
  cur = toobig.data();
  EXPECT_FALSE(get_uvarint(&cur, toobig.data() + toobig.size(), out));

  // Ten bytes whose final byte fits (bit 63 only) decode fine.
  std::vector<std::uint8_t> maxenc;
  put_uvarint(maxenc, std::numeric_limits<std::uint64_t>::max());
  ASSERT_EQ(maxenc.size(), 10u);
  cur = maxenc.data();
  EXPECT_TRUE(get_uvarint(&cur, maxenc.data() + maxenc.size(), out));
  EXPECT_EQ(out, std::numeric_limits<std::uint64_t>::max());
}

TEST(Varint, DecoderLeavesTrailingBytes) {
  std::vector<std::uint8_t> buf;
  put_uvarint(buf, 300);
  put_uvarint(buf, 7);
  const std::uint8_t* cur = buf.data();
  const std::uint8_t* end = buf.data() + buf.size();
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  ASSERT_TRUE(get_uvarint(&cur, end, a));
  ASSERT_TRUE(get_uvarint(&cur, end, b));
  EXPECT_EQ(a, 300u);
  EXPECT_EQ(b, 7u);
  EXPECT_EQ(cur, end);
}

}  // namespace
}  // namespace chronosync
