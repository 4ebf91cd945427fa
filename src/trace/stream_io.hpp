// Streaming, checksummed trace container — format v2, the only binary trace
// format.
//
// Long runs (1800–3600 s, the regime where drift effects appear) produce
// multi-million-event traces; v2 makes them durable, verifiable, and
// consumable with bounded memory.
//
// On-disk layout (all integers little-endian; `uv` = unsigned LEB128 varint,
// `sv` = zigzag LEB128 varint; doubles are IEEE-754 bit patterns):
//
//   file   := magic(u32 "CSTR") version(u32 = 2) meta event* footer
//   chunk  := kind(u8) payload_len(u32) payload crc32c(u32)
//
// Every chunk carries a CRC32C over kind + payload_len + payload.  Kinds:
//
//   'M' meta    exactly one, first:
//                 uv timer_len, timer bytes
//                 uv nranks; per rank: sv node, sv chip, sv core
//                 f64 lat[SameChip] f64 lat[SameNode] f64 lat[CrossNode]
//                 uv nregions; per region: uv len, bytes
//   'E' events  one rank's events (rank-major, non-decreasing rank order):
//                 uv seq (0-based event-chunk index, catches duplicated or
//                         reordered chunks)
//                 uv rank, uv count (>= 1; the writer cuts at events_per_chunk)
//                 per event (delta state resets per chunk):
//                   u8 type
//                   sv delta(bits(local_ts)) sv delta(bits(true_ts))
//                   sv region  sv peer  sv tag  uv bytes
//                   sv delta(msg_id)  u8 coll  sv delta(coll_id)
//                   sv root  sv omp_instance  sv thread
//   'Z' footer  last: uv event_chunk_count, uv total_events,
//               u32 crc32c of every file byte before this chunk
//
// Timestamps delta-encode their u64 bit patterns: within a rank timestamps
// are (near-)monotone, so consecutive bit patterns are close and the zigzag
// delta is short.  Round trips are bit-exact for every finite double.
//
// TraceReader is the one parser of the container, and its one constructor is
// the only way into a v2 stream.  It validates every length/count against the
// bytes actually available before allocating, verifies each chunk's CRC
// before parsing it, and throws TraceIoError on any malformed input — never
// crashes or UB.  Input shorter than the 8-byte header raises
// TraceIoError{Truncated}; any other magic (a foreign file, the retired CSTXT
// text format) {BadMagic}; a "CSTR" header with any other version (e.g. the
// retired fixed-width v1 layout) {BadVersion}.
//
// The chunk index (index_trace_v2) is that reader stepped with next_chunk(),
// i.e. without event decoding, and ChunkReader re-reads an indexed chunk's
// whole frame in one read, through the same payload cap, CRC and head checks;
// neither has validation of its own.
// FrontierReader walks an indexed file through a ChunkReader in frontier
// order, rank by rank as their local timestamps advance: the read order of
// both out-of-core consumers, the windowed CLC (clc_stream.hpp) and the file
// scan of Eq. 1 (clock_condition_stream.hpp).
//
// Every reader hands a chunk's events out through one decoder, EventCursor,
// in pieces of any size and in one of three forms: the 64-byte Event, which
// read_trace_v2 materializes; the 24-byte EdgeRecord, the fields an Eq. 1
// edge reads, which both out-of-core consumers keep; or re-encoded with new
// local timestamps, which the windowed CLC's merge writes
// (ChunkReader::read_retimed).  Every field is parsed and range-checked in
// each form, so a malformed chunk raises the same error whichever form
// decodes it.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "topology/pinning.hpp"
#include "trace/edge_rules.hpp"
#include "trace/io_util.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io_error.hpp"

namespace chronosync {

/// The 8-byte file header: magic "CSTR", then the container version.
inline constexpr std::uint32_t kTraceMagic = 0x43535452;
inline constexpr std::uint32_t kTraceVersion = 2;

/// Trace-level metadata, available before (and without) reading any event.
struct TraceMeta {
  Placement placement;
  std::array<Duration, 3> domain_min_latency{};
  std::string timer_name;
  std::vector<std::string> regions;

  int ranks() const { return placement.ranks(); }
  /// Minimum message latency between two ranks (l_min of Eq. 1).
  Duration min_latency(Rank a, Rank b) const {
    return edge_rules::pair_latency(placement, domain_min_latency, a, b);
  }

  static TraceMeta of(const Trace& trace);
};

/// Events per chunk the writer cuts at by default.  The chunk is the CRC
/// unit, so a reader can use none of a chunk's events before it has read and
/// verified all of them: FrontierReader holds one whole chunk per rank, and
/// ranks × events_per_chunk is the floor of the out-of-core read-ahead.  At
/// 4096 events that floor is a quarter of 16384's, for ~0.03% more file
/// bytes (one ~12-byte frame per chunk).  Readers accept any chunk size, so
/// files cut at 16384 by older writers still read, at their old floor.
inline constexpr std::size_t kDefaultEventsPerChunk = 4096;

/// Incremental v2 writer.  Events must be appended rank-major (all of rank 0,
/// then rank 1, ...); chunks are cut every `events_per_chunk` events or on a
/// rank change.  finish() seals the file with the footer; a writer destroyed
/// without finish() leaves a truncated file, which the reader rejects.
class TraceWriter {
 public:
  TraceWriter(std::ostream& out, TraceMeta meta,
              std::size_t events_per_chunk = kDefaultEventsPerChunk);
  ~TraceWriter() = default;
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(Rank rank, const Event& e);
  /// Appends one whole event chunk of rank `rank`: `events` holds `count`
  /// events encoded as above (delta state reset), as ChunkReader::read_retimed
  /// produces them.  Events appended one by one before it close their own
  /// chunk first.  The bytes are framed and checksummed, not re-validated.
  void append_chunk(Rank rank, std::uint64_t count, std::span<const std::uint8_t> events);
  void finish();

  bool finished() const { return finished_; }
  std::uint64_t events_written() const { return total_events_; }
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  /// The previous event's delta-coded fields, as bit patterns (ids
  /// subtract modulo 2^64).
  struct DeltaState {
    std::uint64_t local_bits = 0;
    std::uint64_t true_bits = 0;
    std::uint64_t msg_id = 0;
    std::uint64_t coll_id = 0;
  };

  void flush_chunk();
  /// Frames `count` encoded events of pending_rank_ as the next event chunk.
  void emit_event_chunk(std::uint64_t count, std::span<const std::uint8_t> events);
  void emit_chunk(std::uint8_t kind, std::span<const std::uint8_t> head,
                  std::span<const std::uint8_t> body);

  std::ostream& out_;
  int ranks_;
  std::size_t events_per_chunk_;
  /// The pending chunk's encoded events are body_[0, body_len_); append()
  /// keeps room behind them for one worst-case event.
  std::vector<std::uint8_t> body_;
  std::size_t body_len_ = 0;
  std::size_t body_events_ = 0;
  Rank pending_rank_ = 0;
  DeltaState prev_{};
  std::uint64_t chunk_seq_ = 0;
  std::uint64_t total_events_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint32_t file_crc_ = 0;
  bool finished_ = false;
};

/// The fields of an event that an Eq. 1 edge reads: its local timestamp and
/// type, and the id, kind and root that pair it with its peers.  `id` is
/// coll_id for CollBegin/CollEnd and msg_id otherwise.  The out-of-core
/// consumers hold events in this form, 24 bytes where an Event takes 64.
struct EdgeRecord {
  Time local_ts = 0.0;
  std::int64_t id = -1;
  Rank root = -1;
  EventType type{};
  CollectiveKind coll{};
};
static_assert(sizeof(EdgeRecord) <= 24, "EdgeRecord must stay at most 24 bytes");

/// Decodes the events of one verified event chunk front to back, in pieces
/// of any size, as Events or as EdgeRecords (or, for ChunkReader, re-encoded
/// with new local timestamps).  Every form parses and range-checks every
/// field, so a malformed event raises the same TraceIoError{Malformed} in
/// each.  A cursor points into its reader's chunk buffer: it is valid until
/// that reader moves to another chunk.
class EventCursor {
 public:
  EventCursor() = default;
  EventCursor(const std::uint8_t* p, const std::uint8_t* end, std::uint32_t count)
      : p_(p), end_(end), left_(count) {}

  /// Events not decoded yet.
  std::uint32_t left() const { return left_; }

  /// Decodes the next out.size() (at most left()) events into `out`.  The
  /// call that decodes the chunk's last event also rejects bytes after it.
  void decode(std::span<Event> out) { decode_as(out); }
  void decode(std::span<EdgeRecord> out) { decode_as(out); }

 private:
  friend class ChunkReader;  // decodes the retimed form

  template <class Rec>
  void decode_as(std::span<Rec> out, std::vector<std::uint8_t>* retimed = nullptr);

  const std::uint8_t* p_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  // The previous event's delta-coded fields, as bit patterns (ids sum
  // modulo 2^64, as the writer subtracts).
  std::uint64_t prev_local_ = 0;
  std::uint64_t prev_true_ = 0;
  std::uint64_t prev_msg_ = 0;
  std::uint64_t prev_coll_ = 0;
  std::uint32_t left_ = 0;
};

/// Location and shape of one event chunk inside a v2 file, recorded by the
/// index pass so the chunk can be re-read (and re-verified) out of order.
struct ChunkRef {
  std::uint64_t offset = 0;       ///< file offset of the chunk's kind byte
  std::uint32_t payload_len = 0;
  std::uint64_t seq = 0;          ///< event-chunk sequence number
  Rank rank = -1;
  std::uint32_t count = 0;        ///< events encoded in the chunk
};

/// Streaming v2 reader, the only parser of the container: validates the
/// header and meta chunk on construction, then steps through the event
/// chunks.  next_chunk() validates the next chunk without decoding its
/// events (the index pass); events() then decodes them in pieces, and
/// append_events() decodes them whole into caller storage.  next_chunk()
/// returns false only after the footer verified the chunk sequence, the
/// event total, and the whole-file CRC.
class TraceReader {
 public:
  /// Reads and checks the 8-byte header and the meta chunk: fewer than 8
  /// bytes raise TraceIoError{Truncated}, any other magic {BadMagic} and
  /// any other version {BadVersion}.
  explicit TraceReader(std::istream& in);

  const TraceMeta& meta() const { return meta_; }
  int ranks() const { return meta_.ranks(); }

  /// Reads and validates the next event chunk — CRC, sequence, rank order,
  /// head — and describes it in `ref`, its offset absolute when the stream
  /// is seekable.
  bool next_chunk(ChunkRef& ref);
  /// The events of the chunk the last next_chunk() call returned, not
  /// decoded yet; valid until the next next_chunk() call.
  EventCursor& events() { return events_; }
  /// Decodes the rest of those events and appends them to `out`.
  void append_events(std::vector<Event>& out);

  /// Event count per rank of the chunks not stepped over yet, or an empty
  /// vector when the stream is not seekable.  A count pass: steps through
  /// them with next_chunk() — every check, footer and whole-file CRC
  /// included — then seeks back, leaving the reader where it was.
  std::vector<std::uint64_t> count_remaining();

  /// Events in the chunks stepped over so far.
  std::uint64_t events_read() const { return at_.events_read; }

 private:
  /// Where the reader stands in the chunk sequence.
  struct Progress {
    std::uint32_t file_crc = 0;
    std::uint64_t event_chunks_seen = 0;
    std::uint64_t events_read = 0;
    Rank last_rank = 0;
    bool done = false;
  };

  void parse_footer();

  traceio::ByteSource src_;
  TraceMeta meta_;
  std::vector<std::uint8_t> payload_;  // reused chunk buffer
  EventCursor events_;                 // the events of the chunk in payload_
  Progress at_;
};

// -- random access over an indexed v2 file ------------------------------------

/// Whole-file chunk index, built by one sequential validation pass.  Knowing
/// every rank's chunk extents and event count up front is what lets the
/// out-of-core consumers (the windowed CLC) preallocate per-rank spill
/// extents and interleave ranks without ever holding the trace in memory.
struct TraceIndex {
  TraceMeta meta;
  std::vector<ChunkRef> chunks;            ///< every event chunk, file order
  std::vector<std::uint64_t> rank_events;  ///< event count per rank
  std::uint64_t total_events = 0;
};

/// Runs a TraceReader over a v2 stream with next_chunk() — every check of
/// the reader but event decoding — and returns the chunk index.  A file
/// whose final event chunk is complete but whose footer is missing (a writer
/// died before finish()) is rejected as Truncated.
TraceIndex index_trace_v2(std::istream& in);

/// Re-reads single event chunks of an indexed v2 file in any order, one read
/// per chunk frame (the ChunkRef gives its length), through TraceReader's
/// payload cap, CRC and head checks, and verifies each chunk against its
/// ChunkRef before decoding.  The stream must be seekable (the index pass
/// already proved it readable).
class ChunkReader {
 public:
  ChunkReader(std::istream& in, const TraceIndex& index);

  /// Reads the chunk at `ref` and returns its events, to decode; the cursor
  /// is valid until the next call.  The frame buffer is reused across
  /// calls, so resident memory stays at one chunk regardless of how many are
  /// visited.
  EventCursor read(const ChunkRef& ref);

  /// Re-reads the chunk at `ref`, verified as read() does, and writes to
  /// `out` its encoded events with event i's local_ts replaced by
  /// `local_ts[i]` and every other field's bytes copied unchanged once the
  /// decoder has checked them — the input of TraceWriter::append_chunk.
  /// Throws TraceIoError on a malformed chunk.
  void read_retimed(const ChunkRef& ref, std::span<const Time> local_ts,
                    std::vector<std::uint8_t>& out);

 private:
  /// Reads the chunk frame at `ref` into frame_ in one read and verifies it;
  /// returns its encoded events.
  std::span<const std::uint8_t> load(const ChunkRef& ref);

  traceio::ByteSource src_;
  int ranks_;
  std::vector<std::uint8_t> frame_;  ///< kind, length, payload and CRC of the chunk last read
};

/// Reads the event chunks of an indexed v2 file in frontier order, the read
/// order of both out-of-core consumers (the windowed CLC and the file-fed
/// Eq. 1 scan).  A rank's chunks come in file order; the next chunk is the
/// one of the rank whose read frontier — the largest local_ts read from it so
/// far, -inf before its first chunk — is lowest, ties going to the lowest
/// rank.  The ranks thus advance together in local time, so a consumer that
/// pairs events across ranks holds only the pairs open around the frontier,
/// where a rank-major read holds every pair whose second endpoint lies on a
/// later rank.  Each chunk goes through ChunkReader, so it is verified
/// against its index entry again.  `index` must outlive the reader.
///
/// A chunk's events are decoded through the reader, in pieces straight into
/// the consumer's storage, so that it can advance the rank's frontier:
/// next() picks the chunk, decode() hands out its events as EdgeRecords, and
/// the decode() that empties the chunk moves low() and eof().
class FrontierReader {
 public:
  FrontierReader(std::istream& in, const TraceIndex& index);

  /// Reads the next chunk in frontier order and returns its rank, or -1 once
  /// every rank is at EOF.  The previous chunk must be fully decoded.
  Rank next();
  /// Events of the chunk last read that are not decoded yet.
  std::uint32_t left() const { return events_.left(); }
  /// Decodes the next out.size() (at most left()) events of that chunk.
  void decode(std::span<EdgeRecord> out);

  /// Whether rank `r` has no chunk left to read.
  bool rank_eof(Rank r) const {
    const Cursor& c = ranks_[static_cast<std::size_t>(r)];
    return c.next >= c.chunks.size();
  }
  /// Whether every rank is at EOF.
  bool eof() const { return eof_; }
  /// The lowest read frontier over the ranks not at EOF; +inf once all are.
  Time low() const { return low_; }

 private:
  struct Cursor {
    std::vector<std::uint32_t> chunks;  ///< indices into TraceIndex::chunks, file order
    std::size_t next = 0;
    Time read_ts = -kTimeInfinity;
  };

  void update_low();

  const TraceIndex& index_;
  ChunkReader chunks_;
  std::vector<Cursor> ranks_;
  EventCursor events_;  ///< the events of the chunk last read
  Rank rank_ = -1;      ///< ... and its rank
  Time low_ = 0.0;
  bool eof_ = false;
};

// -- whole-trace conveniences -------------------------------------------------

void write_trace_v2(const Trace& trace, std::ostream& out,
                    std::size_t events_per_chunk = kDefaultEventsPerChunk);
void write_trace_v2_file(const Trace& trace, const std::string& path,
                         std::size_t events_per_chunk = kDefaultEventsPerChunk);

/// Materializes the rest of `reader` into a Trace.  On a seekable stream a
/// count pass (TraceReader::count_remaining) sizes each rank's events first,
/// so every chunk decodes straight into its final place with no growth or
/// copy; a non-seekable stream is decoded the same way, growing each rank as
/// its chunks arrive.
Trace read_trace_v2(TraceReader& reader);
Trace read_trace_v2(std::istream& in);
Trace read_trace_v2_file(const std::string& path);

/// Opens `path` for binary reading: the one way every `*_file` entry point
/// opens its input.  Throws TraceIoError{Io} for a missing or unreadable
/// path and for a directory (which std::ifstream would open and then read as
/// an empty stream).
std::ifstream open_trace_file(const std::string& path);

}  // namespace chronosync
