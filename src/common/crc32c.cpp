#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define CHRONOSYNC_CRC32C_SSE42 1
#endif

namespace chronosync {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

struct Tables {
  // tab[k][b]: CRC of byte b followed by k zero bytes; slicing-by-8 consumes
  // eight input bytes per iteration with eight independent table lookups.
  std::array<std::array<std::uint32_t, 256>, 8> tab{};

  Tables() {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t crc = b;
      for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      tab[0][b] = crc;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t b = 0; b < 256; ++b) {
        tab[k][b] = (tab[k - 1][b] >> 8) ^ tab[0][tab[k - 1][b] & 0xFFu];
      }
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

// GF(2) polynomials modulo the CRC polynomial, in the CRC's reflected bit
// order (bit 31 holds the x^0 coefficient).

/// a(x) * b(x) mod P(x).
std::uint32_t mul_mod(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t bit = 1u << 31; bit != 0; bit >>= 1) {
    if (a & bit) product ^= b;
    b = (b >> 1) ^ ((b & 1u) ? kPoly : 0u);  // b *= x
  }
  return product;
}

/// x^(8n) mod P(x): multiplying a CRC register by it appends n zero bytes.
/// Squarings of x^8, one per bit of n, are computed once.
std::uint32_t zero_bytes_operator(std::size_t n) {
  static const auto powers = [] {
    std::array<std::uint32_t, 64> p{};  // p[k] = x^(8 * 2^k)
    p[0] = 1u << 23;                    // x^8
    for (std::size_t k = 1; k < p.size(); ++k) p[k] = mul_mod(p[k - 1], p[k - 1]);
    return p;
  }();
  std::uint32_t result = 1u << 31;  // x^0
  for (std::size_t k = 0; n != 0; n >>= 1, ++k) {
    if (n & 1u) result = mul_mod(powers[k], result);
  }
  return result;
}

#ifdef CHRONOSYNC_CRC32C_SSE42

/// Bytes per stream of the interleaved loop.
constexpr std::size_t kStripe = 8192;

// The SSE4.2 CRC32 instruction computes exactly this polynomial, reflected,
// without the init/final inversions.  It retires one 8-byte step per cycle
// but takes three cycles to produce its result, so long inputs run three
// independent streams over consecutive stripes.  The register is affine in
// the bytes: the CRC of stripes A B C from register c is
//   ((c_A * x^(8|B|)) ^ c_B) * x^(8|C|) ^ c_C,
// where c_A continues from c and c_B, c_C start from zero.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(std::uint32_t crc,
                                                               const unsigned char* p,
                                                               std::size_t n) {
  static const std::uint32_t stripe_shift = zero_bytes_operator(kStripe);
  auto word = [](const unsigned char* at) {
    std::uint64_t w;
    std::memcpy(&w, at, 8);
    return w;
  };
  std::uint64_t c = ~crc;
  // Byte steps up to an 8-byte boundary, then 8-byte steps.
  for (; n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0; --n) {
    c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
  }
  for (; n >= 3 * kStripe; n -= 3 * kStripe, p += 3 * kStripe) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < kStripe; i += 8) {
      c = _mm_crc32_u64(c, word(p + i));
      c1 = _mm_crc32_u64(c1, word(p + kStripe + i));
      c2 = _mm_crc32_u64(c2, word(p + 2 * kStripe + i));
    }
    c = mul_mod(stripe_shift, static_cast<std::uint32_t>(c)) ^ c1;
    c = mul_mod(stripe_shift, static_cast<std::uint32_t>(c)) ^ c2;
  }
  for (; n >= 8; n -= 8, p += 8) c = _mm_crc32_u64(c, word(p));
  for (; n > 0; --n) c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
  return ~static_cast<std::uint32_t>(c);
}

bool have_sse42() {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return yes;
}

#endif

}  // namespace

namespace detail {

std::uint32_t crc32c_table(std::uint32_t crc, const void* data, std::size_t n) {
  const auto& tab = tables().tab;
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = tab[7][lo & 0xFFu] ^ tab[6][(lo >> 8) & 0xFFu] ^ tab[5][(lo >> 16) & 0xFFu] ^
          tab[4][lo >> 24] ^ tab[3][hi & 0xFFu] ^ tab[2][(hi >> 8) & 0xFFu] ^
          tab[1][(hi >> 16) & 0xFFu] ^ tab[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n--) crc = (crc >> 8) ^ tab[0][(crc ^ *p++) & 0xFFu];
  return ~crc;
}

}  // namespace detail

std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b, std::size_t len_b) {
  // The register is affine in the bytes and the init/final inversions
  // cancel: crc(A B) = crc(A) * x^(8|B|) ^ crc(B).
  return mul_mod(zero_bytes_operator(len_b), crc_a) ^ crc_b;
}

std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t n) {
#ifdef CHRONOSYNC_CRC32C_SSE42
  if (have_sse42()) return crc32c_sse42(crc, static_cast<const unsigned char*>(data), n);
#endif
  return detail::crc32c_table(crc, data, n);
}

}  // namespace chronosync
