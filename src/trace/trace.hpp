// Trace container and postmortem indexes.
//
// A Trace holds one event vector per process location plus the metadata a
// postmortem tool realistically has: the process placement and the per-domain
// minimum message latencies (the l_min of the clock condition).  Message and
// collective indexes are built on demand.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "topology/pinning.hpp"
#include "trace/edge_rules.hpp"
#include "trace/event.hpp"

namespace chronosync {

/// A send/receive pair, matched postmortem.
struct MessageRecord {
  EventRef send;
  EventRef recv;
  std::uint32_t bytes = 0;
  Tag tag = -1;
};

/// One collective operation instance across its participants.
struct CollectiveInstance {
  CollectiveKind kind{};
  Rank root = -1;
  std::int64_t coll_id = -1;
  /// Per participating rank: CollBegin and CollEnd refs.
  std::vector<EventRef> begins;
  std::vector<EventRef> ends;
};

class Trace {
 public:
  Trace() = default;
  Trace(Placement placement, std::array<Duration, 3> domain_min_latency,
        std::string timer_name);

  int ranks() const { return static_cast<int>(events_.size()); }
  std::vector<Event>& events(Rank r);
  const std::vector<Event>& events(Rank r) const;
  const Event& at(const EventRef& ref) const;

  const Placement& placement() const { return placement_; }
  const std::string& timer_name() const { return timer_name_; }

  /// Minimum message latency between two ranks (l_min of Eq. 1).
  Duration min_latency(Rank a, Rank b) const {
    return edge_rules::pair_latency(placement_, min_latency_, a, b);
  }
  /// Minimum latency by domain (SameChip/SameNode/CrossNode).
  Duration min_latency(CommDomain d) const { return edge_rules::domain_latency(min_latency_, d); }
  const std::array<Duration, 3>& domain_min_latency() const { return min_latency_; }

  std::size_t total_events() const;

  /// Region-name table for Enter/Exit events.
  std::int32_t intern_region(const std::string& name);
  const std::string& region_name(std::int32_t id) const;
  const std::vector<std::string>& regions() const { return region_names_; }

  /// Matches Send/Recv pairs via msg_id (edge_rules::MessageJoin), in
  /// ascending msg_id order; repeats of a duplicated id keep their completion
  /// order.  Half-matched endpoints (a tracing-window edge; none occur in
  /// well-formed runs) are dropped: their number is logged at debug level and,
  /// with metrics on, added to the `trace.match.half_matched` counter.
  std::vector<MessageRecord> match_messages() const;

  /// Groups CollBegin/CollEnd events into instances via coll_id.
  std::vector<CollectiveInstance> collect_collectives() const;

  /// Verifies per-process local monotonicity of local_ts (traces from
  /// monotone timers always satisfy this) and intra-process event sanity.
  void validate() const;

 private:
  Placement placement_;
  std::array<Duration, 3> min_latency_{};
  std::string timer_name_;
  std::vector<std::vector<Event>> events_;
  std::vector<std::string> region_names_;
};

/// Corrected (or raw) timestamps parallel to a Trace's events.
class TimestampArray {
 public:
  TimestampArray() = default;
  /// `ranks` empty rows, to be filled by the caller.
  explicit TimestampArray(int ranks) : ts_(static_cast<std::size_t>(ranks)) {}

  /// Initializes from the trace's recorded local timestamps.
  static TimestampArray from_local(const Trace& t);
  /// Initializes from the simulator's ground-truth timestamps.
  static TimestampArray from_truth(const Trace& t);

  Time& at(const EventRef& ref);
  Time at(const EventRef& ref) const;
  std::vector<Time>& of_rank(Rank r);
  const std::vector<Time>& of_rank(Rank r) const;
  int ranks() const { return static_cast<int>(ts_.size()); }

 private:
  std::vector<std::vector<Time>> ts_;
};

}  // namespace chronosync
