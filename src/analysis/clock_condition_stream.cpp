#include "analysis/clock_condition_stream.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "trace/edge_rules.hpp"
#include "trace/io_util.hpp"
#include "trace/otf_text.hpp"

namespace chronosync {

namespace {

/// One endpoint of a point-to-point message or collective: its rank and
/// local timestamp.
struct Endpoint {
  Rank rank = -1;
  Time ts = 0.0;
};

/// One collective instance, keyed by coll_id: kind/root overwritten by every
/// participating event (last one wins), begins/ends in rank-major order.
struct CollInstance {
  CollectiveKind kind{};
  Rank root = -1;
  std::vector<Endpoint> begins;
  std::vector<Endpoint> ends;
};

}  // namespace

ClockConditionReport scan_clock_condition(TraceReader& reader, ScanStats* stats) {
  CS_SPAN("analysis.clock_condition_scan");
  const TraceMeta& meta = reader.meta();
  ClockConditionReport rep;
  ScanStats local_stats;

  // Messages are checked the moment their second endpoint arrives, so the
  // join's high-water mark tracks the outstanding backlog, not the message
  // count; half-matched leftovers are dropped.
  edge_rules::MessageJoin<Endpoint> msgs;
  std::unordered_map<std::int64_t, CollInstance> colls;
  auto check_p2p = [&](const Endpoint& send, const Endpoint& recv) {
    rep.add_edge(/*logical=*/false, send.ts, recv.ts, meta.min_latency(send.rank, recv.rank));
  };
  auto add_coll = [&](const Event& e, const Endpoint& ep) {
    auto& inst = colls[e.coll_id];
    inst.kind = e.coll;
    inst.root = e.root;
    (e.type == EventType::CollBegin ? inst.begins : inst.ends).push_back(ep);
    local_stats.peak_outstanding_collectives =
        std::max(local_stats.peak_outstanding_collectives, colls.size());
  };

  EventBlock block;
  while (reader.next(block)) {
    for (const Event& e : block.events) {
      rep.add_event(e.type);
      const Endpoint ep{block.rank, e.local_ts};
      switch (e.type) {
        case EventType::Send:
          msgs.send(e.msg_id, ep, check_p2p);
          break;
        case EventType::Recv:
          msgs.recv(e.msg_id, ep, check_p2p);
          break;
        case EventType::CollBegin:
        case EventType::CollEnd:
          add_coll(e, ep);
          break;
        default:
          break;
      }
    }
  }
  local_stats.peak_outstanding_messages = msgs.peak_outstanding();

  for (const auto& [id, inst] : colls) {
    if (edge_rules::partial_instance(inst.begins.size(), inst.ends.size())) continue;
    edge_rules::for_each_logical_edge(
        inst.kind, inst.root, inst.begins, inst.ends, [](const Endpoint& ep) { return ep.rank; },
        [&](const Endpoint& begin, const Endpoint& end) {
          rep.add_edge(/*logical=*/true, begin.ts, end.ts, meta.min_latency(begin.rank, end.rank));
        });
  }
  if (stats) *stats = local_stats;
  return rep;
}

ClockConditionReport scan_clock_condition(std::istream& in, ScanStats* stats) {
  // Sniff at most 8 bytes and never seek: a short read just means the input
  // is smaller than a v2 header (e.g. a tiny text trace), not an error —
  // clear the stream state and hand everything to the matching reader.
  char header[8];
  in.read(header, 8);
  const auto got = static_cast<std::size_t>(in.gcount());
  in.clear();
  std::uint32_t magic = 0;
  if (got >= 4) std::memcpy(&magic, header, 4);

  if (got >= 4 && magic == kTraceMagic) {
    if (got < 8) {
      throw TraceIoError(TraceIoErrorKind::Truncated, "trace header: stream ended mid-read");
    }
    check_trace_header(header);
    TraceReader reader(in, /*header_consumed=*/true);
    return scan_clock_condition(reader, stats);
  }

  // Not a binary container: replay the sniffed prefix in front of the
  // remaining bytes so the text reader sees the stream from offset zero and
  // reports its own errors (with line numbers).
  traceio::PrefixedStreambuf replay_buf(std::string(header, got), in);
  std::istream replay(&replay_buf);
  const Trace trace = read_text_trace(replay);
  if (stats) *stats = ScanStats{};
  return check_clock_condition(trace, TimestampArray::from_local(trace));
}

ClockConditionReport scan_clock_condition_file(const std::string& path, ScanStats* stats) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) {
    throw TraceIoError(TraceIoErrorKind::Io, "cannot open trace file for reading: " + path);
  }
  return scan_clock_condition(f, stats);
}

}  // namespace chronosync
