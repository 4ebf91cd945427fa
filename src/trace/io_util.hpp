// Low-level stream helpers of the trace readers.
//
// ByteSource wraps an std::istream with *bounded* reads: when the stream is
// seekable its end is measured once up front, and every length/count field is
// validated against the bytes left before any allocation.  On non-seekable
// streams that check is impossible, so callers cap each length field
// themselves (the v2 reader's 64 MiB chunk limit) and a lying one fails at EOF
// with Truncated.  It also tracks the offset of the next byte and seeks, for
// the chunk index and the random-access chunk reads.
#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <string>

#include "trace/trace_io_error.hpp"

namespace chronosync::traceio {

// -- bounded reader -----------------------------------------------------------

class ByteSource {
 public:
  explicit ByteSource(std::istream& in) : in_(in) {
    const std::streampos pos = in_.tellg();
    if (pos != std::streampos(-1)) {
      offset_ = static_cast<std::uint64_t>(pos);
      in_.seekg(0, std::ios::end);
      const std::streampos end = in_.tellg();
      in_.seekg(pos);
      if (end != std::streampos(-1) && in_.good()) end_ = static_cast<std::int64_t>(end);
    }
    in_.clear();  // a failed probe on a non-seekable stream must not poison reads
  }

  /// Stream offset of the next byte: absolute on a seekable stream, counted
  /// from the construction point otherwise.
  std::uint64_t offset() const { return offset_; }

  /// True when the stream's size is known, i.e. it can seek.
  bool seekable() const { return end_ >= 0; }

  /// Moves to absolute `offset` of a seekable stream.
  void seek(std::uint64_t offset) {
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(offset));
    if (!in_.good()) {
      throw TraceIoError(TraceIoErrorKind::Io,
                         "seek to offset " + std::to_string(offset) + " failed");
    }
    offset_ = offset;
  }

  /// Validates that `n` more bytes exist without consuming them (only
  /// possible when the stream size is known; a no-op otherwise).
  void need(std::uint64_t n, const char* what) const {
    if (end_ >= 0 && n > remaining()) {
      throw TraceIoError(TraceIoErrorKind::Truncated,
                         std::string(what) + ": needs " + std::to_string(n) +
                             " bytes but only " + std::to_string(remaining()) + " remain");
    }
  }

  void read_exact(void* dst, std::size_t n, const char* what) {
    need(n, what);
    in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in_.gcount()) != n) {
      throw TraceIoError(TraceIoErrorKind::Truncated,
                         std::string(what) + ": stream ended mid-read");
    }
    offset_ += n;
  }

  std::uint8_t get_u8(const char* what) {
    std::uint8_t v;
    read_exact(&v, 1, what);
    return v;
  }

  std::uint32_t get_u32(const char* what) {
    char b[4];
    read_exact(b, 4, what);
    std::uint32_t v;
    std::memcpy(&v, b, 4);
    return v;
  }

  /// True when the stream has no byte left.
  bool exhausted() {
    if (end_ >= 0) return remaining() == 0;
    return in_.peek() == std::istream::traits_type::eof();
  }

 private:
  std::uint64_t remaining() const {
    const auto end = static_cast<std::uint64_t>(end_);
    return offset_ < end ? end - offset_ : 0;
  }

  std::istream& in_;
  std::uint64_t offset_ = 0;
  std::int64_t end_ = -1;  ///< the stream's end offset, -1 while unknown
};

}  // namespace chronosync::traceio
