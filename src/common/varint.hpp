// LEB128 variable-length integers and zigzag mapping — the wire primitives of
// the v2 trace container.  Small magnitudes (deltas, ids, ranks) encode in one
// or two bytes instead of a fixed four or eight.
//
// Decoders are total functions over untrusted bytes: they never read past
// `end`, reject overlong encodings (> 10 bytes), and report failure through
// the return value so callers can surface a typed error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace chronosync {

/// Longest LEB128 encoding of a 64-bit value.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Writes the unsigned LEB128 encoding of `v` (1..10 bytes) at `p`, which
/// has room for kMaxVarintBytes, and returns the end of the encoding.
inline std::uint8_t* put_uvarint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80u) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80u;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Appends the unsigned LEB128 encoding of `v` (1..10 bytes) to `out`.
inline void put_uvarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  if (v < 0x80u) {  // the common one-byte case: small deltas, ids, ranks
    out.push_back(static_cast<std::uint8_t>(v));
    return;
  }
  std::uint8_t buf[kMaxVarintBytes];
  out.insert(out.end(), buf, put_uvarint(buf, v));
}

/// Maps signed to unsigned so small magnitudes of either sign stay short:
/// 0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ...
inline std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1u);
}

inline std::uint8_t* put_svarint(std::uint8_t* p, std::int64_t v) {
  return put_uvarint(p, zigzag_encode(v));
}

inline void put_svarint(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_uvarint(out, zigzag_encode(v));
}

/// Decodes one unsigned LEB128 value from [*cursor, end).  On success advances
/// *cursor past the encoding and returns true; on truncation or an overlong
/// encoding leaves *cursor unspecified and returns false.
inline bool get_uvarint(const std::uint8_t** cursor, const std::uint8_t* end,
                        std::uint64_t& out) {
  const std::uint8_t* p = *cursor;
  if (p != end && *p < 0x80u) {  // one-byte fast path
    out = *p;
    *cursor = p + 1;
    return true;
  }
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (p == end) return false;
    const std::uint8_t byte = *p++;
    if (shift == 63 && (byte & 0xFEu)) return false;  // would overflow 64 bits
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if (!(byte & 0x80u)) {
      *cursor = p;
      out = v;
      return true;
    }
  }
  return false;
}

inline bool get_svarint(const std::uint8_t** cursor, const std::uint8_t* end,
                        std::int64_t& out) {
  std::uint64_t u = 0;
  if (!get_uvarint(cursor, end, u)) return false;
  out = zigzag_decode(u);
  return true;
}

}  // namespace chronosync
