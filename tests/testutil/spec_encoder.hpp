// An independent v2 encoder, written from the container layout in the header
// comment of trace/stream_io.hpp rather than from TraceWriter.  It shares
// only the varint and CRC32C primitives with the library, so comparing its
// bytes with the writer's pins the writer's encoding: a round trip passes for
// any self-consistent encoding, this comparison only for the specified one.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "common/varint.hpp"
#include "trace/trace.hpp"

namespace chronosync::testutil {

namespace spec {

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_bytes(std::vector<std::uint8_t>& out, const std::string& s) {
  put_uvarint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

/// chunk := kind(u8) payload_len(u32) payload crc32c(u32), the CRC over
/// kind + payload_len + payload.
inline void put_chunk(std::vector<std::uint8_t>& file, char kind,
                      const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> frame;
  frame.push_back(static_cast<std::uint8_t>(kind));
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  const std::uint32_t crc = crc32c(0, frame.data(), frame.size());
  put_u32(frame, crc);
  file.insert(file.end(), frame.begin(), frame.end());
}

}  // namespace spec

/// Encodes `t` as a v2 file whose event chunks hold at most
/// `events_per_chunk` events of one rank each.
inline std::string encode_v2_spec(const Trace& t, std::size_t events_per_chunk) {
  std::vector<std::uint8_t> file;
  spec::put_u32(file, 0x43535452);  // "CSTR"
  spec::put_u32(file, 2);

  std::vector<std::uint8_t> meta;
  spec::put_bytes(meta, t.timer_name());
  put_uvarint(meta, static_cast<std::uint64_t>(t.ranks()));
  for (Rank r = 0; r < t.ranks(); ++r) {
    const CoreLocation& loc = t.placement().location(r);
    put_svarint(meta, loc.node);
    put_svarint(meta, loc.chip);
    put_svarint(meta, loc.core);
  }
  for (const double lat : t.domain_min_latency()) {
    spec::put_u64(meta, std::bit_cast<std::uint64_t>(lat));
  }
  put_uvarint(meta, t.regions().size());
  for (const std::string& name : t.regions()) spec::put_bytes(meta, name);
  spec::put_chunk(file, 'M', meta);

  std::uint64_t seq = 0;
  std::uint64_t total = 0;
  for (Rank r = 0; r < t.ranks(); ++r) {
    const std::vector<Event>& events = t.events(r);
    for (std::size_t first = 0; first < events.size(); first += events_per_chunk) {
      const std::size_t last = std::min(events.size(), first + events_per_chunk);
      std::vector<std::uint8_t> chunk;
      put_uvarint(chunk, seq++);
      put_uvarint(chunk, static_cast<std::uint64_t>(r));
      put_uvarint(chunk, last - first);
      // Delta state resets per chunk.
      std::uint64_t local = 0, truth = 0;
      std::int64_t msg = 0, coll = 0;
      for (std::size_t i = first; i < last; ++i) {
        const Event& e = events[i];
        const auto local_bits = std::bit_cast<std::uint64_t>(e.local_ts);
        const auto true_bits = std::bit_cast<std::uint64_t>(e.true_ts);
        chunk.push_back(static_cast<std::uint8_t>(e.type));
        put_svarint(chunk, static_cast<std::int64_t>(local_bits - local));
        put_svarint(chunk, static_cast<std::int64_t>(true_bits - truth));
        put_svarint(chunk, e.region);
        put_svarint(chunk, e.peer);
        put_svarint(chunk, e.tag);
        put_uvarint(chunk, e.bytes);
        // Wrapping difference, as the decoder's wrapping sum undoes it.
        put_svarint(chunk, static_cast<std::int64_t>(static_cast<std::uint64_t>(e.msg_id) -
                                                     static_cast<std::uint64_t>(msg)));
        chunk.push_back(static_cast<std::uint8_t>(e.coll));
        put_svarint(chunk, static_cast<std::int64_t>(static_cast<std::uint64_t>(e.coll_id) -
                                                     static_cast<std::uint64_t>(coll)));
        put_svarint(chunk, e.root);
        put_svarint(chunk, e.omp_instance);
        put_svarint(chunk, e.thread);
        local = local_bits;
        truth = true_bits;
        msg = e.msg_id;
        coll = e.coll_id;
      }
      spec::put_chunk(file, 'E', chunk);
      total += last - first;
    }
  }

  std::vector<std::uint8_t> footer;
  put_uvarint(footer, seq);
  put_uvarint(footer, total);
  spec::put_u32(footer, crc32c(0, file.data(), file.size()));
  spec::put_chunk(file, 'Z', footer);
  return {file.begin(), file.end()};
}

}  // namespace chronosync::testutil
