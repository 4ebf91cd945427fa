#include "analysis/clock_condition_stream.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "trace/edge_rules.hpp"

namespace chronosync {

namespace {

/// One endpoint of a point-to-point message or collective: its rank and
/// local timestamp.
struct Endpoint {
  Rank rank = -1;
  Time ts = 0.0;
};

/// One collective instance, keyed by coll_id.  begins/ends collect in read
/// order: each rank's own events in trace order, the ranks interleaved in any
/// way.  That is enough, because the edge rules look at the order of one
/// rank's events only (first-match roots).  kind/root come from the
/// participant that is last in rank-major order (the highest rank, its last
/// event), as in a rank-major read where every participant overwrites them.
struct CollInstance {
  CollectiveKind kind{};
  Rank root = -1;
  Rank kind_rank = -1;  ///< rank of the event kind/root were taken from
  std::vector<Endpoint> begins;
  std::vector<Endpoint> ends;
};

/// The scan's per-event state, fed a rank's events a piece at a time.  A
/// rank's events must come in file order; ranks may interleave in any order.
/// With `seen`, add() refuses the piece that repeats a (msg_id, side) pair.
class Scan {
 public:
  Scan(const TraceMeta& meta, edge_rules::SeenEndpoints* seen) : meta_(meta), seen_(seen) {}

  /// Feeds the events left in rank `rank`'s chunk — an EventCursor, or a
  /// FrontierReader over the chunk it read — decoded a piece at a time, so
  /// no decoded chunk is held; false as add().
  template <class Chunk>
  bool add_chunk(Rank rank, Chunk& chunk) {
    while (chunk.left() > 0) {
      const std::span<EdgeRecord> events(piece_.data(),
                                         std::min<std::size_t>(chunk.left(), piece_.size()));
      chunk.decode(events);
      if (!add(rank, events)) return false;
    }
    return true;
  }

  /// Feeds rank `rank`'s next events; false (the scan then unusable) when
  /// `seen` refuses them.
  bool add(Rank rank, std::span<const EdgeRecord> events) {
    auto check_p2p = [&](const Endpoint& send, const Endpoint& recv) {
      rep_.add_edge(/*logical=*/false, send.ts, recv.ts, meta_.min_latency(send.rank, recv.rank));
    };
    for (const EdgeRecord& e : events) {
      rep_.add_event(e.type);
      const Endpoint ep{rank, e.local_ts};
      switch (e.type) {
        case EventType::Send:
          if (seen_ != nullptr && !seen_->mark(e.id, 0)) return false;
          msgs_.send(e.id, ep, check_p2p);
          break;
        case EventType::Recv:
          if (seen_ != nullptr && !seen_->mark(e.id, 1)) return false;
          msgs_.recv(e.id, ep, check_p2p);
          break;
        case EventType::CollBegin:
        case EventType::CollEnd: {
          CollInstance& inst = colls_[e.id];
          if (rank >= inst.kind_rank) {
            inst.kind = e.coll;
            inst.root = e.root;
            inst.kind_rank = rank;
          }
          (e.type == EventType::CollBegin ? inst.begins : inst.ends).push_back(ep);
          peak_colls_ = std::max(peak_colls_, colls_.size());
          break;
        }
        default:
          break;
      }
    }
    return true;
  }

  /// Checks the logical edges of every complete instance and returns the
  /// report; half-matched messages are dropped.
  ClockConditionReport finish(ScanStats* stats) {
    // One walk over the instances; add_edge is order-independent, so the
    // table's unspecified order leaves the report unchanged.  Nothing is
    // removed: the table is dropped whole with the scan.
    colls_.erase_if([&](std::int64_t, const CollInstance& inst) {
      if (edge_rules::partial_instance(inst.begins.size(), inst.ends.size())) return false;
      edge_rules::for_each_logical_edge(
          inst.kind, inst.root, inst.begins, inst.ends, [](const Endpoint& ep) { return ep.rank; },
          [&](const Endpoint& begin, const Endpoint& end) {
            rep_.add_edge(/*logical=*/true, begin.ts, end.ts,
                          meta_.min_latency(begin.rank, end.rank));
          });
      return false;
    });
    if (stats) *stats = {msgs_.peak_outstanding(), peak_colls_};
    return rep_;
  }

 private:
  const TraceMeta& meta_;
  edge_rules::SeenEndpoints* seen_;
  std::array<EdgeRecord, 512> piece_;
  ClockConditionReport rep_;
  // Messages are checked the moment their second endpoint arrives, so the
  // join's high-water mark tracks the outstanding backlog, not the message
  // count.
  edge_rules::MessageJoin<Endpoint> msgs_;
  edge_rules::IdTable<CollInstance> colls_;
  std::size_t peak_colls_ = 0;
};

void count(const char* name, std::int64_t n) {
  if (obs::metrics_enabled()) obs::counter(name).add(n);
}

/// The scan in frontier order over an indexed file, or nothing when an id
/// repeats a side or the seen-set outgrows its budget.
std::optional<ClockConditionReport> scan_frontier(std::istream& in, const TraceIndex& index,
                                                  ScanStats* stats) {
  CS_SPAN("analysis.scan.read");
  edge_rules::SeenEndpoints seen(index.total_events);
  Scan scan(index.meta, &seen);
  FrontierReader reader(in, index);
  std::int64_t chunks = 0;
  bool ok = true;
  for (Rank r; ok && (r = reader.next()) >= 0;) {
    ++chunks;
    ok = scan.add_chunk(r, reader) && !seen.over_budget();
  }
  count("analysis.scan.chunks_read", chunks);
  if (!ok) return std::nullopt;
  return scan.finish(stats);
}

}  // namespace

ClockConditionReport scan_clock_condition(TraceReader& reader, ScanStats* stats) {
  CS_SPAN("analysis.clock_condition_scan");
  Scan scan(reader.meta(), nullptr);
  std::int64_t chunks = 0;
  ChunkRef ref;
  while (reader.next_chunk(ref)) {
    ++chunks;
    scan.add_chunk(ref.rank, reader.events());
  }
  count("analysis.scan.chunks_read", chunks);
  return scan.finish(stats);
}

ClockConditionReport scan_clock_condition_file(const std::string& path, ScanStats* stats) {
  std::ifstream f = open_trace_file(path);
  if (f.tellg() < 0) {
    // A pipe or other unseekable file cannot be re-read out of order.
    TraceReader reader(f);
    return scan_clock_condition(reader, stats);
  }
  TraceIndex index;
  {
    CS_SPAN("analysis.scan.index");
    index = index_trace_v2(f);
  }
  if (auto rep = scan_frontier(f, index, stats)) return *rep;

  count("analysis.scan.rank_major_restarts", 1);
  f.clear();
  f.seekg(0);
  TraceReader reader(f);
  return scan_clock_condition(reader, stats);
}

}  // namespace chronosync
