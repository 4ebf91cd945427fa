#include "trace/trace.hpp"

#include <algorithm>
#include <map>

#include "common/log.hpp"

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

std::vector<MessageRecord> Trace::match_messages() const {
  edge_rules::MessageJoin<EventRef> join;
  std::vector<std::pair<std::int64_t, MessageRecord>> done;
  for (Rank r = 0; r < ranks(); ++r) {
    const auto& ev = events(r);
    for (std::uint32_t i = 0; i < ev.size(); ++i) {
      const Event& e = ev[i];
      auto on_pair = [&](const EventRef& send, const EventRef& recv) {
        const Event& s = events_[static_cast<std::size_t>(send.proc)][send.index];
        done.emplace_back(e.msg_id, MessageRecord{send, recv, s.bytes, s.tag});
      };
      if (e.type == EventType::Send) {
        join.send(e.msg_id, {r, i}, on_pair);
      } else if (e.type == EventType::Recv) {
        join.recv(e.msg_id, {r, i}, on_pair);
      }
    }
  }
  if (join.outstanding() > 0) {
    // Sends whose receive fell outside the tracing window (or vice versa).
    CS_LOG_DEBUG << join.outstanding() << " half-matched messages dropped (tracing window edges)";
  }
  // Ascending msg_id (stable, so the rare duplicate-id repeats stay in
  // completion order).
  std::stable_sort(done.begin(), done.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<MessageRecord> out;
  out.reserve(done.size());
  for (auto& [id, m] : done) out.push_back(m);
  return out;
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
