// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum guarding trace container chunks.  Chosen over CRC32 (zlib) for its
// better error-detection properties on short records.  On x86-64 CPUs with
// SSE4.2 it runs on the CRC32 instruction, eight bytes per instruction and
// three independent streams over long inputs (the CPU is checked at run
// time; there is no build flag); everywhere else it falls back to
// slicing-by-8 tables in software.
#pragma once

#include <cstddef>
#include <cstdint>

namespace chronosync {

/// Extends a running CRC32C over `n` more bytes.  Start from 0; feed the
/// previous return value to continue.  The init/final inversions are handled
/// internally, so partial results compose:
///   crc32c(crc32c(0, a, na), b, nb) == crc32c(0, ab, na + nb).
std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t n);

/// The CRC32C of A followed by B, from `crc_a` (of A, or any running value
/// ending where B starts) and crc_b = crc32c(0, B, len_b), without reading B:
///   crc32c_combine(crc_a, crc32c(0, b, nb), nb) == crc32c(crc_a, b, nb).
/// Costs O(log len_b) polynomial multiplications.
std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b, std::size_t len_b);

namespace detail {

/// The slicing-by-8 software path, same contract as crc32c(): the fallback
/// on CPUs without the instruction and the oracle the hardware path is
/// tested against.
std::uint32_t crc32c_table(std::uint32_t crc, const void* data, std::size_t n);

}  // namespace detail

}  // namespace chronosync
