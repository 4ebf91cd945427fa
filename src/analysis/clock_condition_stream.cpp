#include "analysis/clock_condition_stream.hpp"

#include <algorithm>
#include <fstream>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "trace/edge_rules.hpp"

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
  edge_rules::IdTable<CollInstance> colls;
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

  // One walk over the instances; add_edge is order-independent, so the
  // table's unspecified order leaves the report unchanged.  Nothing is
  // removed: the table is dropped whole on return.
  colls.erase_if([&](std::int64_t, const CollInstance& inst) {
    if (edge_rules::partial_instance(inst.begins.size(), inst.ends.size())) return false;
    edge_rules::for_each_logical_edge(
        inst.kind, inst.root, inst.begins, inst.ends, [](const Endpoint& ep) { return ep.rank; },
        [&](const Endpoint& begin, const Endpoint& end) {
          rep.add_edge(/*logical=*/true, begin.ts, end.ts, meta.min_latency(begin.rank, end.rank));
        });
    return false;
  });
  if (stats) *stats = local_stats;
  return rep;
}

ClockConditionReport scan_clock_condition_file(const std::string& path, ScanStats* stats) {
  std::ifstream f = open_trace_file(path);
  TraceReader reader(f);
  return scan_clock_condition(reader, stats);
}

}  // namespace chronosync
