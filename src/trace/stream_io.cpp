#include "trace/stream_io.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string_view>
#include <type_traits>

#include "common/crc32c.hpp"
#include "common/expect.hpp"
#include "common/varint.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"

namespace chronosync {

namespace {

constexpr std::uint8_t kChunkMeta = 'M';
constexpr std::uint8_t kChunkEvents = 'E';
constexpr std::uint8_t kChunkFooter = 'Z';

/// Hard ceiling on a chunk payload; rejects forged lengths before allocation
/// even on non-seekable streams.
constexpr std::uint32_t kMaxChunkPayload = 1u << 26;  // 64 MiB

/// Largest event-chunk head: three 10-byte varints (seq, rank, count).
constexpr std::uint32_t kMaxEventChunkHead = 30;

/// Smallest possible encoded event: type byte + 12 one-byte varints.
constexpr std::uint64_t kMinEncodedEvent = 13;

/// Largest possible encoded event: two enum bytes + 11 ten-byte varints.
constexpr std::size_t kMaxEncodedEvent = 2 + 11 * kMaxVarintBytes;

constexpr std::uint8_t kMaxEventType = static_cast<std::uint8_t>(EventType::BarrierExit);
constexpr std::uint8_t kMaxCollKind = static_cast<std::uint8_t>(CollectiveKind::Alltoall);

void put_raw32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_raw64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_raw64(out, std::bit_cast<std::uint64_t>(v));
}

[[noreturn]] void malformed(const std::string& msg) {
  throw TraceIoError(TraceIoErrorKind::Malformed, msg);
}

/// The error path of the field readers below, kept out of line so that they
/// inline into the decode loops.
[[noreturn, gnu::cold, gnu::noinline]] void bad_field(const char* what, const char* why) {
  malformed(std::string(what) + ": " + why);
}

inline std::uint64_t get_uv(const std::uint8_t** p, const std::uint8_t* end, const char* what) {
  std::uint64_t v = 0;
  if (!get_uvarint(p, end, v)) [[unlikely]] bad_field(what, "bad varint");
  return v;
}

inline std::int64_t get_sv(const std::uint8_t** p, const std::uint8_t* end, const char* what) {
  std::int64_t v = 0;
  if (!get_svarint(p, end, v)) [[unlikely]] bad_field(what, "bad varint");
  return v;
}

inline std::int32_t get_sv32(const std::uint8_t** p, const std::uint8_t* end, const char* what) {
  const std::int64_t v = get_sv(p, end, what);
  if (v < std::numeric_limits<std::int32_t>::min() ||
      v > std::numeric_limits<std::int32_t>::max()) [[unlikely]] {
    bad_field(what, "value out of 32-bit range");
  }
  return static_cast<std::int32_t>(v);
}

std::uint64_t get_raw64(const std::uint8_t** p, const std::uint8_t* end, const char* what) {
  if (end - *p < 8) malformed(std::string(what) + ": truncated 8-byte field");
  std::uint64_t v;
  std::memcpy(&v, *p, 8);
  *p += 8;
  return v;
}

/// Parses and validates the meta-chunk payload.
TraceMeta parse_meta_payload(const std::uint8_t* p, const std::uint8_t* end) {
  TraceMeta meta;
  const std::uint64_t timer_len = get_uv(&p, end, "meta timer");
  if (timer_len > static_cast<std::uint64_t>(end - p)) malformed("meta timer name overruns chunk");
  meta.timer_name.assign(reinterpret_cast<const char*>(p), timer_len);
  p += timer_len;

  const std::uint64_t nranks = get_uv(&p, end, "meta rank count");
  // Each rank location needs at least three varint bytes.
  if (nranks > static_cast<std::uint64_t>(end - p) / 3) {
    malformed("meta rank count " + std::to_string(nranks) + " overruns chunk");
  }
  std::vector<CoreLocation> locs(static_cast<std::size_t>(nranks));
  for (auto& loc : locs) {
    loc.node = get_sv32(&p, end, "meta placement");
    loc.chip = get_sv32(&p, end, "meta placement");
    loc.core = get_sv32(&p, end, "meta placement");
  }
  meta.placement = Placement(std::move(locs));

  for (auto& d : meta.domain_min_latency) {
    d = std::bit_cast<double>(get_raw64(&p, end, "meta latency"));
  }

  const std::uint64_t nregions = get_uv(&p, end, "meta region count");
  if (nregions > static_cast<std::uint64_t>(end - p)) {
    malformed("meta region count " + std::to_string(nregions) + " overruns chunk");
  }
  meta.regions.reserve(static_cast<std::size_t>(nregions));
  for (std::uint64_t i = 0; i < nregions; ++i) {
    const std::uint64_t len = get_uv(&p, end, "meta region name");
    if (len > static_cast<std::uint64_t>(end - p)) malformed("meta region name overruns chunk");
    meta.regions.emplace_back(reinterpret_cast<const char*>(p), len);
    p += len;
  }
  if (p != end) malformed("trailing bytes in meta chunk");
  // Events name regions by index, so a repeated name would make two ids of
  // one region (Trace interns each name once).
  std::vector<std::string_view> names(meta.regions.begin(), meta.regions.end());
  std::sort(names.begin(), names.end());
  if (std::adjacent_find(names.begin(), names.end()) != names.end()) {
    malformed("duplicate region name in meta chunk");
  }
  return meta;
}

/// Tallies one chunk frame read, `len` its payload bytes.
void count_chunk_in(std::uint32_t len) {
  if (obs::metrics_enabled()) {
    static obs::Counter& chunks = obs::counter("trace.chunks_in");
    static obs::Counter& bytes_in = obs::counter("trace.bytes_in");
    chunks.add(1);
    bytes_in.add(static_cast<std::int64_t>(5 + static_cast<std::uint64_t>(len) + 4));
  }
}

/// Throws TraceIoError{BadChecksum} unless the CRC32C `crc` computed over a
/// chunk of `kind` equals the `stored` one.
void check_chunk_crc(std::uint8_t kind, std::uint32_t crc, std::uint32_t stored) {
  if (crc != stored) {
    throw TraceIoError(TraceIoErrorKind::BadChecksum,
                       "chunk checksum mismatch (kind '" + std::string(1, static_cast<char>(kind)) +
                           "')");
  }
}

/// Reads one chunk frame — kind, payload length (capped before allocation),
/// payload, CRC32C — into `payload` and verifies the chunk CRC.  Unless
/// `file_crc` is null or the chunk is the footer, whose CRC field covers every
/// byte before it, folds the whole frame into `*file_crc`: the verified chunk
/// CRC stands for the bytes it covers, so each byte is read once.  Returns
/// the kind.
std::uint8_t read_frame(traceio::ByteSource& src, std::vector<std::uint8_t>& payload,
                        std::uint32_t* file_crc) {
  CS_SPAN("trace.read_chunk");
  const std::uint8_t kind = src.get_u8("chunk header");
  const std::uint32_t len = src.get_u32("chunk header");
  if (len > kMaxChunkPayload) {
    malformed("chunk payload length " + std::to_string(len) + " exceeds the 64 MiB limit");
  }
  src.need(static_cast<std::uint64_t>(len) + 4, "chunk payload");
  payload.resize(len);
  src.read_exact(payload.data(), len, "chunk payload");
  const std::uint32_t stored = src.get_u32("chunk checksum");
  count_chunk_in(len);

  char hdr[5];
  hdr[0] = static_cast<char>(kind);
  std::memcpy(hdr + 1, &len, 4);
  obs::Span crc_span("trace.crc");
  const std::uint32_t crc = crc32c(crc32c(0, hdr, 5), payload.data(), payload.size());
  check_chunk_crc(kind, crc, stored);
  if (file_crc != nullptr && kind != kChunkFooter) {
    char crc_bytes[4];
    std::memcpy(crc_bytes, &stored, 4);
    *file_crc = crc32c(crc32c_combine(*file_crc, crc, 5 + std::size_t{len}), crc_bytes, 4);
  }
  return kind;
}

struct EventChunkHead {
  std::uint64_t seq = 0;
  Rank rank = -1;
  std::uint32_t count = 0;
  const std::uint8_t* events = nullptr;  ///< the encoded events after the head
};

/// Parses the head of the event-chunk payload [p, end) of a trace with
/// `ranks` ranks: the rank lies in the placement, and the count is positive
/// and fits the payload, so a forged one is caught before a decoder sizes
/// storage for it.
EventChunkHead parse_event_head(const std::uint8_t* p, const std::uint8_t* end, int ranks) {
  EventChunkHead head;
  head.seq = get_uv(&p, end, "event chunk sequence");
  const std::uint64_t rank = get_uv(&p, end, "event chunk rank");
  if (rank >= static_cast<std::uint64_t>(ranks)) {
    malformed("event chunk rank " + std::to_string(rank) + " outside the placement");
  }
  head.rank = static_cast<Rank>(rank);
  const std::uint64_t count = get_uv(&p, end, "event chunk count");
  if (count == 0) malformed("empty event chunk");
  if (count > static_cast<std::uint64_t>(end - p) / kMinEncodedEvent) {
    malformed("event chunk count " + std::to_string(count) + " overruns chunk");
  }
  head.count = static_cast<std::uint32_t>(count);
  head.events = p;
  return head;
}

/// Checks an 8-byte file header: TraceIoError{BadMagic} unless it starts with
/// kTraceMagic, {BadVersion} unless the version that follows is kTraceVersion.
void check_trace_header(const char (&header)[8]) {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::memcpy(&magic, header, 4);
  std::memcpy(&version, header + 4, 4);
  if (magic != kTraceMagic) {
    throw TraceIoError(TraceIoErrorKind::BadMagic, "not a chronosync trace stream");
  }
  if (version != kTraceVersion) {
    throw TraceIoError(TraceIoErrorKind::BadVersion,
                       "expected container version 2, found " + std::to_string(version));
  }
}

}  // namespace

// -- EventCursor --------------------------------------------------------------

/// The one event decoder.  Its three forms run the same parse and the same
/// checks: an EdgeRecord stores five of the fields, an Event all of them, and
/// the retimed form (Rec = const Time) stores none but appends each event to
/// `retimed` re-encoded with out[i] as its local_ts and every other field's
/// bytes copied.  The retimed form's delta state is that of the new
/// timestamps, so it decodes a whole chunk from its first event.
template <class Rec>
void EventCursor::decode_as(std::span<Rec> out, std::vector<std::uint8_t>* retimed) {
  constexpr bool kFull = std::is_same_v<Rec, Event>;
  constexpr bool kRetime = std::is_same_v<Rec, const Time>;
  static_assert(kFull || kRetime || std::is_same_v<Rec, EdgeRecord>);
  CS_REQUIRE(out.size() <= left_, "decode past the end of the event chunk");
  const std::uint8_t* p = p_;
  const std::uint8_t* const end = end_;
  std::uint64_t prev_local = prev_local_;
  std::uint64_t prev_true = prev_true_;
  std::uint64_t prev_msg = prev_msg_;
  std::uint64_t prev_coll = prev_coll_;
  for (Rec& e : out) {
    if (p == end) malformed("event chunk ends mid-event");
    const std::uint8_t type = *p++;
    if (type > kMaxEventType) malformed("invalid event type " + std::to_string(type));
    if constexpr (!kRetime) e.type = static_cast<EventType>(type);
    const auto local_delta = static_cast<std::uint64_t>(get_sv(&p, end, "event local_ts"));
    const std::uint8_t* const kept = p;  // true_ts onwards: what the retimed form copies
    prev_true += static_cast<std::uint64_t>(get_sv(&p, end, "event true_ts"));
    if constexpr (!kRetime) {
      prev_local += local_delta;
      e.local_ts = std::bit_cast<double>(prev_local);
    }
    const std::int32_t region = get_sv32(&p, end, "event region");
    const std::int32_t peer = get_sv32(&p, end, "event peer");
    const std::int32_t tag = get_sv32(&p, end, "event tag");
    if constexpr (kFull) {
      e.true_ts = std::bit_cast<double>(prev_true);
      e.region = region;
      e.peer = peer;
      e.tag = tag;
    }
    const std::uint64_t bytes = get_uv(&p, end, "event bytes");
    if (bytes > std::numeric_limits<std::uint32_t>::max()) malformed("event bytes out of range");
    prev_msg += static_cast<std::uint64_t>(get_sv(&p, end, "event msg_id"));
    if constexpr (kFull) {
      e.bytes = static_cast<std::uint32_t>(bytes);
      e.msg_id = static_cast<std::int64_t>(prev_msg);
    }
    if (p == end) malformed("event chunk ends mid-event");
    const std::uint8_t coll = *p++;
    if (coll > kMaxCollKind) malformed("invalid collective kind " + std::to_string(coll));
    prev_coll += static_cast<std::uint64_t>(get_sv(&p, end, "event coll_id"));
    const std::int32_t root = get_sv32(&p, end, "event root");
    const std::int32_t omp_instance = get_sv32(&p, end, "event omp_instance");
    const std::int32_t thread = get_sv32(&p, end, "event thread");
    if constexpr (kRetime) {
      const auto local = std::bit_cast<std::uint64_t>(e);
      retimed->push_back(type);
      put_svarint(*retimed, static_cast<std::int64_t>(local - prev_local));
      retimed->insert(retimed->end(), kept, p);
      prev_local = local;
    } else {
      e.coll = static_cast<CollectiveKind>(coll);
      e.root = root;
      if constexpr (kFull) {
        e.coll_id = static_cast<std::int64_t>(prev_coll);
        e.omp_instance = omp_instance;
        e.thread = thread;
      } else {
        const bool collective = e.type == EventType::CollBegin || e.type == EventType::CollEnd;
        e.id = static_cast<std::int64_t>(collective ? prev_coll : prev_msg);
      }
    }
  }
  p_ = p;
  prev_local_ = prev_local;
  prev_true_ = prev_true;
  prev_msg_ = prev_msg;
  prev_coll_ = prev_coll;
  left_ -= static_cast<std::uint32_t>(out.size());
  if (left_ == 0 && p != end) malformed("trailing bytes in event chunk");
}

template void EventCursor::decode_as(std::span<Event>, std::vector<std::uint8_t>*);
template void EventCursor::decode_as(std::span<EdgeRecord>, std::vector<std::uint8_t>*);

// -- TraceMeta ----------------------------------------------------------------

TraceMeta TraceMeta::of(const Trace& trace) {
  TraceMeta m;
  m.placement = trace.placement();
  m.domain_min_latency = trace.domain_min_latency();
  m.timer_name = trace.timer_name();
  m.regions = trace.regions();
  return m;
}

// -- TraceWriter --------------------------------------------------------------

TraceWriter::TraceWriter(std::ostream& out, TraceMeta meta, std::size_t events_per_chunk)
    : out_(out), ranks_(meta.ranks()), events_per_chunk_(events_per_chunk) {
  CS_REQUIRE(events_per_chunk_ > 0, "events_per_chunk must be positive");
  CS_REQUIRE(events_per_chunk_ <= kMaxChunkPayload / 128,
             "events_per_chunk too large for the chunk payload limit");

  // File header.
  char header[8];
  std::memcpy(header, &kTraceMagic, 4);
  std::memcpy(header + 4, &kTraceVersion, 4);
  out_.write(header, 8);
  file_crc_ = crc32c(file_crc_, header, 8);
  bytes_written_ += 8;

  // Meta chunk.
  std::vector<std::uint8_t> body;
  put_uvarint(body, meta.timer_name.size());
  body.insert(body.end(), meta.timer_name.begin(), meta.timer_name.end());
  put_uvarint(body, static_cast<std::uint64_t>(ranks_));
  for (Rank r = 0; r < ranks_; ++r) {
    const CoreLocation& loc = meta.placement.location(r);
    put_svarint(body, loc.node);
    put_svarint(body, loc.chip);
    put_svarint(body, loc.core);
  }
  for (Duration d : meta.domain_min_latency) put_f64(body, d);
  put_uvarint(body, meta.regions.size());
  for (const std::string& name : meta.regions) {
    put_uvarint(body, name.size());
    body.insert(body.end(), name.begin(), name.end());
  }
  emit_chunk(kChunkMeta, {}, body);
}

void TraceWriter::append(Rank rank, const Event& e) {
  CS_REQUIRE(!finished_, "append on a finished TraceWriter");
  CS_REQUIRE(rank >= 0 && rank < ranks_, "rank outside the placement");
  if (body_events_ == 0) {
    CS_REQUIRE(rank >= pending_rank_, "events must be appended rank-major");
    pending_rank_ = rank;
  } else if (rank != pending_rank_) {
    CS_REQUIRE(rank > pending_rank_, "events must be appended rank-major");
    flush_chunk();
    pending_rank_ = rank;
  }

  const auto type = static_cast<std::uint8_t>(e.type);
  const auto coll = static_cast<std::uint8_t>(e.coll);
  CS_REQUIRE(type <= kMaxEventType && coll <= kMaxCollKind, "event with invalid enum value");

  // The chunk buffer keeps room for one worst-case event, so the fields are
  // written through a plain pointer with no per-byte capacity check.
  if (body_.size() - body_len_ < kMaxEncodedEvent) {
    body_.resize(std::max(2 * body_.size(), body_len_ + kMaxEncodedEvent));
  }
  const std::uint64_t local_bits = std::bit_cast<std::uint64_t>(e.local_ts);
  const std::uint64_t true_bits = std::bit_cast<std::uint64_t>(e.true_ts);
  const auto msg = static_cast<std::uint64_t>(e.msg_id);
  const auto coll_id = static_cast<std::uint64_t>(e.coll_id);
  std::uint8_t* p = body_.data() + body_len_;
  *p++ = type;
  p = put_svarint(p, static_cast<std::int64_t>(local_bits - prev_.local_bits));
  p = put_svarint(p, static_cast<std::int64_t>(true_bits - prev_.true_bits));
  p = put_svarint(p, e.region);
  p = put_svarint(p, e.peer);
  p = put_svarint(p, e.tag);
  p = put_uvarint(p, e.bytes);
  p = put_svarint(p, static_cast<std::int64_t>(msg - prev_.msg_id));
  *p++ = coll;
  p = put_svarint(p, static_cast<std::int64_t>(coll_id - prev_.coll_id));
  p = put_svarint(p, e.root);
  p = put_svarint(p, e.omp_instance);
  p = put_svarint(p, e.thread);
  body_len_ = static_cast<std::size_t>(p - body_.data());
  prev_ = {local_bits, true_bits, msg, coll_id};

  ++body_events_;
  ++total_events_;
  if (body_events_ >= events_per_chunk_) flush_chunk();
}

void TraceWriter::append_chunk(Rank rank, std::uint64_t count,
                               std::span<const std::uint8_t> events) {
  CS_REQUIRE(!finished_, "append_chunk on a finished TraceWriter");
  CS_REQUIRE(rank >= 0 && rank < ranks_, "rank outside the placement");
  CS_REQUIRE(count > 0, "an event chunk holds at least one event");
  flush_chunk();
  CS_REQUIRE(rank >= pending_rank_, "events must be appended rank-major");
  pending_rank_ = rank;
  emit_event_chunk(count, events);
  total_events_ += count;
}

void TraceWriter::flush_chunk() {
  if (body_events_ == 0) return;
  emit_event_chunk(body_events_, {body_.data(), body_len_});
  body_len_ = 0;
  body_events_ = 0;
  prev_ = {};
}

void TraceWriter::emit_event_chunk(std::uint64_t count, std::span<const std::uint8_t> events) {
  std::uint8_t head[kMaxEventChunkHead];
  std::uint8_t* p = put_uvarint(head, chunk_seq_);
  p = put_uvarint(p, static_cast<std::uint64_t>(pending_rank_));
  p = put_uvarint(p, count);
  emit_chunk(kChunkEvents, {head, p}, events);
  ++chunk_seq_;
}

void TraceWriter::emit_chunk(std::uint8_t kind, std::span<const std::uint8_t> head,
                             std::span<const std::uint8_t> body) {
  CS_SPAN("trace.write_chunk");
  const std::uint64_t len64 = head.size() + body.size();
  CS_ENSURE(len64 <= kMaxChunkPayload, "chunk payload exceeds the format limit");
  const auto len = static_cast<std::uint32_t>(len64);

  char hdr[5];
  hdr[0] = static_cast<char>(kind);
  std::memcpy(hdr + 1, &len, 4);

  std::uint32_t crc;
  {
    CS_SPAN("trace.crc");
    crc = crc32c(0, hdr, 5);
    crc = crc32c(crc, head.data(), head.size());
    crc = crc32c(crc, body.data(), body.size());
  }

  out_.write(hdr, 5);
  out_.write(reinterpret_cast<const char*>(head.data()),
             static_cast<std::streamsize>(head.size()));
  out_.write(reinterpret_cast<const char*>(body.data()),
             static_cast<std::streamsize>(body.size()));
  char crc_bytes[4];
  std::memcpy(crc_bytes, &crc, 4);
  out_.write(crc_bytes, 4);
  if (!out_.good()) throw TraceIoError(TraceIoErrorKind::Io, "trace write failed");

  // The chunk CRC covers the frame up to its CRC field; combined into the
  // whole-file CRC, it spares a second pass over the payload.
  file_crc_ = crc32c(crc32c_combine(file_crc_, crc, 5 + len64), crc_bytes, 4);
  bytes_written_ += 5 + len64 + 4;

  if (obs::metrics_enabled()) {
    static obs::Counter& chunks = obs::counter("trace.chunks_out");
    static obs::Counter& bytes_out = obs::counter("trace.bytes_out");
    chunks.add(1);
    bytes_out.add(static_cast<std::int64_t>(5 + len64 + 4));
  }
}

void TraceWriter::finish() {
  CS_REQUIRE(!finished_, "finish on a finished TraceWriter");
  flush_chunk();
  std::vector<std::uint8_t> body;
  put_uvarint(body, chunk_seq_);
  put_uvarint(body, total_events_);
  put_raw32(body, file_crc_);
  emit_chunk(kChunkFooter, {}, body);
  out_.flush();
  if (!out_.good()) throw TraceIoError(TraceIoErrorKind::Io, "trace write failed");
  finished_ = true;
}

// -- TraceReader --------------------------------------------------------------

TraceReader::TraceReader(std::istream& in) : src_(in) {
  char header[8];
  src_.read_exact(header, 8, "trace header");
  check_trace_header(header);
  at_.file_crc = crc32c(at_.file_crc, header, 8);

  if (read_frame(src_, payload_, &at_.file_crc) != kChunkMeta) {
    malformed("first chunk must be the meta chunk");
  }
  meta_ = parse_meta_payload(payload_.data(), payload_.data() + payload_.size());
}

bool TraceReader::next_chunk(ChunkRef& ref) {
  events_ = {};
  if (at_.done) return false;
  const std::uint64_t offset = src_.offset();
  const std::uint8_t kind = read_frame(src_, payload_, &at_.file_crc);
  if (kind == kChunkFooter) {
    parse_footer();
    at_.done = true;
    return false;
  }
  if (kind == kChunkMeta) malformed("duplicate meta chunk");
  if (kind != kChunkEvents) {
    malformed("unknown chunk kind '" + std::string(1, static_cast<char>(kind)) + "'");
  }

  const EventChunkHead head =
      parse_event_head(payload_.data(), payload_.data() + payload_.size(), ranks());
  if (head.seq != at_.event_chunks_seen) {
    malformed("event chunk out of sequence (duplicated, dropped, or reordered chunk): expected " +
              std::to_string(at_.event_chunks_seen) + ", found " + std::to_string(head.seq));
  }
  if (head.rank < at_.last_rank) malformed("event chunks out of rank order");

  ref = {offset, static_cast<std::uint32_t>(payload_.size()), head.seq, head.rank, head.count};
  events_ = {head.events, payload_.data() + payload_.size(), head.count};
  ++at_.event_chunks_seen;
  at_.events_read += head.count;
  at_.last_rank = head.rank;
  return true;
}

void TraceReader::append_events(std::vector<Event>& out) {
  CS_REQUIRE(events_.left() > 0, "append_events needs a chunk from next_chunk()");
  const std::size_t at = out.size();
  out.resize(at + events_.left());
  events_.decode(std::span(out).subspan(at));
}

std::vector<std::uint64_t> TraceReader::count_remaining() {
  if (!src_.seekable()) return {};
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(ranks()), 0);
  const std::uint64_t offset = src_.offset();
  const Progress saved = at_;
  ChunkRef ref;
  while (next_chunk(ref)) counts[static_cast<std::size_t>(ref.rank)] += ref.count;
  at_ = saved;
  src_.seek(offset);
  return counts;
}

void TraceReader::parse_footer() {
  const std::uint8_t* p = payload_.data();
  const std::uint8_t* end = p + payload_.size();
  const std::uint64_t nchunks = get_uv(&p, end, "footer chunk count");
  if (nchunks != at_.event_chunks_seen) {
    malformed("footer event-chunk count " + std::to_string(nchunks) + " != " +
              std::to_string(at_.event_chunks_seen) + " chunks read");
  }
  const std::uint64_t total = get_uv(&p, end, "footer total");
  if (total != at_.events_read) {
    malformed("footer event total " + std::to_string(total) + " != " +
              std::to_string(at_.events_read) + " events read");
  }
  if (end - p != 4) malformed("footer payload has wrong size");
  std::uint32_t stored;
  std::memcpy(&stored, p, 4);
  if (stored != at_.file_crc) {
    throw TraceIoError(TraceIoErrorKind::BadChecksum, "whole-file checksum mismatch");
  }
  if (!src_.exhausted()) malformed("trailing data after trace footer");
}

// -- chunk index & random access ----------------------------------------------

TraceIndex index_trace_v2(std::istream& in) {
  TraceReader reader(in);
  TraceIndex idx;
  idx.meta = reader.meta();
  idx.rank_events.assign(static_cast<std::size_t>(reader.ranks()), 0);
  ChunkRef ref;
  while (reader.next_chunk(ref)) {
    idx.chunks.push_back(ref);
    idx.rank_events[static_cast<std::size_t>(ref.rank)] += ref.count;
  }
  idx.total_events = reader.events_read();
  return idx;
}

ChunkReader::ChunkReader(std::istream& in, const TraceIndex& index)
    : src_(in), ranks_(index.meta.ranks()) {}

std::span<const std::uint8_t> ChunkReader::load(const ChunkRef& ref) {
  CS_SPAN("trace.read_chunk");
  CS_REQUIRE(ref.rank >= 0 && ref.rank < ranks_, "chunk ref outside the placement");
  const std::uint32_t len = ref.payload_len;
  if (len > kMaxChunkPayload) {
    malformed("chunk payload length " + std::to_string(len) + " exceeds the 64 MiB limit");
  }
  // The index knows the frame's length, so kind, length, payload and CRC
  // come in one read.
  src_.seek(ref.offset);
  frame_.resize(5 + std::size_t{len} + 4);
  src_.read_exact(frame_.data(), frame_.size(), "event chunk");
  count_chunk_in(len);
  const std::uint8_t* payload = frame_.data() + 5;
  std::uint32_t stored_len;
  std::memcpy(&stored_len, frame_.data() + 1, 4);
  if (stored_len == len) {
    std::uint32_t stored;
    std::memcpy(&stored, payload + len, 4);
    {
      CS_SPAN("trace.crc");
      check_chunk_crc(frame_[0], crc32c(0, frame_.data(), 5 + std::size_t{len}), stored);
    }
    if (frame_[0] == kChunkEvents) {
      const EventChunkHead head = parse_event_head(payload, payload + len, ranks_);
      if (head.seq == ref.seq && head.rank == ref.rank && head.count == ref.count) {
        return {head.events, payload + len};
      }
    }
  }
  malformed("event chunk does not match its index entry");
}

EventCursor ChunkReader::read(const ChunkRef& ref) {
  const std::span<const std::uint8_t> events = load(ref);
  return {events.data(), events.data() + events.size(), ref.count};
}

void ChunkReader::read_retimed(const ChunkRef& ref, std::span<const Time> local_ts,
                               std::vector<std::uint8_t>& out) {
  CS_REQUIRE(local_ts.size() == ref.count, "one timestamp per event of the chunk");
  out.clear();
  read(ref).decode_as(local_ts, &out);
  // Longer timestamp deltas could push a forged maximal chunk past the limit
  // the writer enforces.
  if (out.size() > kMaxChunkPayload - kMaxEventChunkHead) {
    malformed("retimed event chunk exceeds the 64 MiB payload limit");
  }
}

FrontierReader::FrontierReader(std::istream& in, const TraceIndex& index)
    : index_(index), chunks_(in, index), ranks_(static_cast<std::size_t>(index.meta.ranks())) {
  for (std::uint32_t c = 0; c < index.chunks.size(); ++c) {
    ranks_[static_cast<std::size_t>(index.chunks[c].rank)].chunks.push_back(c);
  }
  update_low();
}

Rank FrontierReader::next() {
  CS_REQUIRE(events_.left() == 0, "the previous chunk is not fully decoded");
  Rank pick = -1;
  Time lowest = kTimeInfinity;
  for (Rank r = 0; r < static_cast<Rank>(ranks_.size()); ++r) {
    if (rank_eof(r)) continue;
    const Time ts = ranks_[static_cast<std::size_t>(r)].read_ts;
    if (pick < 0 || ts < lowest) {
      pick = r;
      lowest = ts;
    }
  }
  if (pick < 0) return -1;
  Cursor& c = ranks_[static_cast<std::size_t>(pick)];
  events_ = chunks_.read(index_.chunks[c.chunks[c.next]]);
  rank_ = pick;
  ++c.next;
  return pick;
}

void FrontierReader::decode(std::span<EdgeRecord> out) {
  events_.decode(out);
  Cursor& c = ranks_[static_cast<std::size_t>(rank_)];
  for (const EdgeRecord& e : out) c.read_ts = std::max(c.read_ts, e.local_ts);
  if (events_.left() == 0) update_low();
}

void FrontierReader::update_low() {
  low_ = kTimeInfinity;
  eof_ = true;
  for (Rank r = 0; r < static_cast<Rank>(ranks_.size()); ++r) {
    if (rank_eof(r)) continue;
    eof_ = false;
    low_ = std::min(low_, ranks_[static_cast<std::size_t>(r)].read_ts);
  }
  if (eof_) low_ = kTimeInfinity;
}

// -- conveniences -------------------------------------------------------------

void write_trace_v2(const Trace& trace, std::ostream& out, std::size_t events_per_chunk) {
  TraceWriter w(out, TraceMeta::of(trace), events_per_chunk);
  for (Rank r = 0; r < trace.ranks(); ++r) {
    for (const Event& e : trace.events(r)) w.append(r, e);
  }
  w.finish();
}

void write_trace_v2_file(const Trace& trace, const std::string& path,
                         std::size_t events_per_chunk) {
  std::ofstream f(path, std::ios::binary);
  if (!f.good()) {
    throw TraceIoError(TraceIoErrorKind::Io, "cannot open trace file for writing: " + path);
  }
  write_trace_v2(trace, f, events_per_chunk);
}

Trace read_trace_v2(TraceReader& reader) {
  const TraceMeta& meta = reader.meta();
  Trace trace(meta.placement, meta.domain_min_latency, meta.timer_name);
  // parse_meta_payload rejected repeated names, so region i interns as id i.
  for (const std::string& name : meta.regions) trace.intern_region(name);
  // Seekable streams size every rank up front, so each chunk decodes into
  // its final place; otherwise the ranks grow as their chunks arrive.
  const std::vector<std::uint64_t> counts = reader.count_remaining();
  for (std::size_t r = 0; r < counts.size(); ++r) {
    trace.events(static_cast<Rank>(r)).reserve(static_cast<std::size_t>(counts[r]));
  }
  ChunkRef ref;
  while (reader.next_chunk(ref)) reader.append_events(trace.events(ref.rank));
  return trace;
}

Trace read_trace_v2(std::istream& in) {
  TraceReader reader(in);
  return read_trace_v2(reader);
}

Trace read_trace_v2_file(const std::string& path) {
  std::ifstream f = open_trace_file(path);
  return read_trace_v2(f);
}

std::ifstream open_trace_file(const std::string& path) {
  std::error_code ec;  // a failed stat falls through to open(), which reports it
  std::ifstream f;
  if (!std::filesystem::is_directory(path, ec)) f.open(path, std::ios::binary);
  if (!f.is_open()) {
    throw TraceIoError(TraceIoErrorKind::Io, "cannot open trace file for reading: " + path);
  }
  return f;
}

}  // namespace chronosync
