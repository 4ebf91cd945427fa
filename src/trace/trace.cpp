#include "trace/trace.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <utility>

#include "obs/obs.hpp"
#include "obs/registry.hpp"

namespace chronosync {

std::string to_string(EventType t) {
  switch (t) {
    case EventType::Enter: return "ENTER";
    case EventType::Exit: return "EXIT";
    case EventType::Send: return "SEND";
    case EventType::Recv: return "RECV";
    case EventType::CollBegin: return "COLL_BEGIN";
    case EventType::CollEnd: return "COLL_END";
    case EventType::Fork: return "FORK";
    case EventType::Join: return "JOIN";
    case EventType::BarrierEnter: return "BARR_ENTER";
    case EventType::BarrierExit: return "BARR_EXIT";
  }
  return "?";
}

std::string to_string(CollectiveKind k) {
  switch (k) {
    case CollectiveKind::Barrier: return "barrier";
    case CollectiveKind::Bcast: return "bcast";
    case CollectiveKind::Reduce: return "reduce";
    case CollectiveKind::Allreduce: return "allreduce";
    case CollectiveKind::Gather: return "gather";
    case CollectiveKind::Scatter: return "scatter";
    case CollectiveKind::Allgather: return "allgather";
    case CollectiveKind::Alltoall: return "alltoall";
  }
  return "?";
}

CollectiveFlavor flavor_of(CollectiveKind k) {
  switch (k) {
    case CollectiveKind::Bcast:
    case CollectiveKind::Scatter:
      return CollectiveFlavor::OneToN;
    case CollectiveKind::Reduce:
    case CollectiveKind::Gather:
      return CollectiveFlavor::NToOne;
    case CollectiveKind::Barrier:
    case CollectiveKind::Allreduce:
    case CollectiveKind::Allgather:
    case CollectiveKind::Alltoall:
      return CollectiveFlavor::NToN;
  }
  return CollectiveFlavor::NToN;
}

Trace::Trace(Placement placement, std::array<Duration, 3> domain_min_latency,
             std::string timer_name)
    : placement_(std::move(placement)),
      min_latency_(domain_min_latency),
      timer_name_(std::move(timer_name)) {
  events_.resize(static_cast<std::size_t>(placement_.ranks()));
}

std::vector<Event>& Trace::events(Rank r) {
  CS_REQUIRE(r >= 0 && r < ranks(), "rank out of trace range");
  return events_[static_cast<std::size_t>(r)];
}

const std::vector<Event>& Trace::events(Rank r) const {
  CS_REQUIRE(r >= 0 && r < ranks(), "rank out of trace range");
  return events_[static_cast<std::size_t>(r)];
}

const Event& Trace::at(const EventRef& ref) const {
  const auto& ev = events(ref.proc);
  CS_REQUIRE(ref.index < ev.size(), "event index out of range");
  return ev[ref.index];
}

std::size_t Trace::total_events() const {
  std::size_t n = 0;
  for (const auto& v : events_) n += v.size();
  return n;
}

std::int32_t Trace::intern_region(const std::string& name) {
  for (std::size_t i = 0; i < region_names_.size(); ++i) {
    if (region_names_[i] == name) return static_cast<std::int32_t>(i);
  }
  region_names_.push_back(name);
  return static_cast<std::int32_t>(region_names_.size() - 1);
}

const std::string& Trace::region_name(std::int32_t id) const {
  CS_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < region_names_.size(),
             "region id out of range");
  return region_names_[static_cast<std::size_t>(id)];
}

namespace {

/// A matched message and the id it was matched on.
struct KeyedMessage {
  std::int64_t id = 0;
  MessageRecord m;
};

/// Stable LSD radix sort of `in` by ascending id (ties keep their order).
/// Digits run over id - min_id, so only the bits that vary are sorted, and a
/// digit may take up to ~2n buckets: dense ids, as well-formed traces have,
/// sort in a single counting pass.  The last pass drops the keys.
std::vector<MessageRecord> sort_by_id(std::vector<KeyedMessage> in) {
  // 32-bit bucket counts keep the largest array small; ReplaySchedule's
  // global event indexes are 32-bit too.
  CS_REQUIRE(in.size() <= std::numeric_limits<std::uint32_t>::max(), "more than 2^32 messages");
  std::vector<MessageRecord> out(in.size());
  if (in.empty()) return out;
  const auto [lo, hi] = std::minmax_element(
      in.begin(), in.end(),
      [](const KeyedMessage& a, const KeyedMessage& b) { return a.id < b.id; });
  // id - min_id, computed unsigned so that no span of int64 ids overflows.
  auto key_of = [min_id = static_cast<std::uint64_t>(lo->id)](const KeyedMessage& k) {
    return static_cast<std::uint64_t>(k.id) - min_id;
  };
  const int bits = std::bit_width(key_of(*hi));
  const int max_digit = std::max(8, static_cast<int>(std::bit_width(in.size())) + 1);
  const int digit = std::clamp(bits, 1, max_digit);
  const std::uint64_t mask = (std::uint64_t{1} << digit) - 1;
  const int passes = std::max(1, (bits + digit - 1) / digit);

  std::vector<KeyedMessage> tmp(passes > 1 ? in.size() : 0);
  std::vector<std::uint32_t> start(mask + 1);
  for (int p = 0; p < passes; ++p) {
    const int shift = p * digit;
    std::fill(start.begin(), start.end(), 0);
    for (const KeyedMessage& k : in) ++start[(key_of(k) >> shift) & mask];
    std::uint32_t sum = 0;
    for (std::uint32_t& c : start) sum += std::exchange(c, sum);
    if (p + 1 == passes) {
      for (const KeyedMessage& k : in) out[start[(key_of(k) >> shift) & mask]++] = k.m;
    } else {
      for (const KeyedMessage& k : in) tmp[start[(key_of(k) >> shift) & mask]++] = k;
      in.swap(tmp);
    }
  }
  return out;
}

}  // namespace

std::vector<MessageRecord> Trace::match_messages() const {
  CS_SPAN("trace.match");
  std::vector<KeyedMessage> done;
  done.reserve(total_events() / 2);  // every message takes two events
  {
    // The send's payload rides in its endpoint, so completing a pair never
    // looks back into another rank's events.  The join is freed before the
    // sort allocates.
    struct Endpoint {
      EventRef ref;
      std::uint32_t bytes = 0;
      Tag tag = -1;
    };
    edge_rules::MessageJoin<Endpoint> join;
    for (Rank r = 0; r < ranks(); ++r) {
      const auto& ev = events_[static_cast<std::size_t>(r)];
      for (std::uint32_t i = 0; i < ev.size(); ++i) {
        const Event& e = ev[i];
        auto on_pair = [&](const Endpoint& send, const Endpoint& recv) {
          done.push_back({e.msg_id, MessageRecord{send.ref, recv.ref, send.bytes, send.tag}});
        };
        if (e.type == EventType::Send) {
          join.send(e.msg_id, {{r, i}, e.bytes, e.tag}, on_pair);
        } else if (e.type == EventType::Recv) {
          join.recv(e.msg_id, {{r, i}}, on_pair);
        }
      }
    }
    if (obs::metrics_enabled()) {
      static obs::Counter& half_matched = obs::counter("trace.match.half_matched");
      // One sample per call: the histogram's .max is the peak over calls.
      static obs::QuantileHisto& peak = obs::quantile_histogram("trace.match.peak_outstanding");
      half_matched.add(static_cast<std::int64_t>(join.outstanding()));
      peak.add(static_cast<double>(join.peak_outstanding()));
    }
  }
  // Ascending msg_id; the rare duplicate-id repeats stay in completion order.
  return sort_by_id(std::move(done));
}

std::vector<CollectiveInstance> Trace::collect_collectives() const {
  std::map<std::int64_t, CollectiveInstance> by_id;
  for (Rank r = 0; r < ranks(); ++r) {
    const auto& ev = events(r);
    for (std::uint32_t i = 0; i < ev.size(); ++i) {
      const Event& e = ev[i];
      if (e.type != EventType::CollBegin && e.type != EventType::CollEnd) continue;
      auto& inst = by_id[e.coll_id];
      inst.kind = e.coll;
      inst.root = e.root;
      inst.coll_id = e.coll_id;
      if (e.type == EventType::CollBegin) {
        inst.begins.push_back({r, i});
      } else {
        inst.ends.push_back({r, i});
      }
    }
  }
  std::vector<CollectiveInstance> out;
  out.reserve(by_id.size());
  for (auto& [id, inst] : by_id) {
    if (edge_rules::partial_instance(inst.begins.size(), inst.ends.size())) continue;
    out.push_back(std::move(inst));
  }
  return out;
}

void Trace::validate() const {
  for (Rank r = 0; r < ranks(); ++r) {
    const auto& ev = events(r);
    for (std::size_t i = 1; i < ev.size(); ++i) {
      // Events of one location must carry non-decreasing local timestamps for
      // threads sharing a clock; across threads of one rank we only require
      // per-thread monotonicity.
      if (ev[i].thread == ev[i - 1].thread) {
        CS_ENSURE(ev[i].local_ts >= ev[i - 1].local_ts,
                  "local timestamps not monotone within a location");
      }
      CS_ENSURE(ev[i].true_ts >= ev[i - 1].true_ts - 1e-12 || ev[i].thread != ev[i - 1].thread,
                "ground-truth timestamps not monotone within a location");
    }
  }
}

TimestampArray TimestampArray::from_local(const Trace& t) {
  TimestampArray a;
  a.ts_.resize(static_cast<std::size_t>(t.ranks()));
  for (Rank r = 0; r < t.ranks(); ++r) {
    const auto& ev = t.events(r);
    auto& v = a.ts_[static_cast<std::size_t>(r)];
    v.reserve(ev.size());
    for (const Event& e : ev) v.push_back(e.local_ts);
  }
  return a;
}

TimestampArray TimestampArray::from_truth(const Trace& t) {
  TimestampArray a;
  a.ts_.resize(static_cast<std::size_t>(t.ranks()));
  for (Rank r = 0; r < t.ranks(); ++r) {
    const auto& ev = t.events(r);
    auto& v = a.ts_[static_cast<std::size_t>(r)];
    v.reserve(ev.size());
    for (const Event& e : ev) v.push_back(e.true_ts);
  }
  return a;
}

Time& TimestampArray::at(const EventRef& ref) {
  CS_REQUIRE(ref.proc >= 0 && ref.proc < ranks(), "rank out of range");
  auto& v = ts_[static_cast<std::size_t>(ref.proc)];
  CS_REQUIRE(ref.index < v.size(), "index out of range");
  return v[ref.index];
}

Time TimestampArray::at(const EventRef& ref) const {
  return const_cast<TimestampArray*>(this)->at(ref);
}

std::vector<Time>& TimestampArray::of_rank(Rank r) {
  CS_REQUIRE(r >= 0 && r < ranks(), "rank out of range");
  return ts_[static_cast<std::size_t>(r)];
}

const std::vector<Time>& TimestampArray::of_rank(Rank r) const {
  return const_cast<TimestampArray*>(this)->of_rank(r);
}

}  // namespace chronosync
