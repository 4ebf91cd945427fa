#include "sync/replay.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "obs/obs.hpp"
#include "obs/registry.hpp"

namespace chronosync {

namespace {

/// Whether two distinct ranks share a core (`locs`: each rank's location):
/// only then can a hub pair two ranks without a latency
/// (edge_rules::domain_latency refuses SameCore).
bool has_colocated_ranks(std::vector<CoreLocation> locs) {
  const auto key = [](const CoreLocation& l) { return std::tie(l.node, l.chip, l.core); };
  std::sort(locs.begin(), locs.end(),
            [&](const CoreLocation& a, const CoreLocation& b) { return key(a) < key(b); });
  return std::adjacent_find(locs.begin(), locs.end()) != locs.end();
}

/// Scans the run of messages sharing logical[lo]'s coll_id, in one pass, and
/// returns its end.  Sets `is_hub` if the run is exactly the expansion of a
/// hub with begins `begins` and ends `ends`, at least two of each.
std::size_t scan_run(const std::vector<LogicalMessage>& logical, std::size_t lo,
                     std::vector<EventRef>& begins, std::vector<EventRef>& ends, bool& is_hub) {
  const std::int64_t id = logical[lo].coll_id;
  const std::size_t n = logical.size();
  const auto in_run = [&](std::size_t k) { return k < n && logical[k].coll_id == id; };
  const auto run_end = [&](std::size_t k) {
    while (in_run(k)) ++k;
    return k;
  };
  // One end's stretch: the messages into the same event from k on.
  const auto stretch_end = [&](std::size_t k) {
    const EventRef end = logical[k].recv;
    while (in_run(k) && logical[k].recv == end) ++k;
    return k;
  };
  begins.clear();
  ends.clear();
  is_hub = false;

  // Begins: an end of rank r lists every begin except rank r's, so the first
  // end's stretch merged with the first stretch of an end of another rank is
  // B.  Where the two leave the order of a rank-r and a rank-r' begin open,
  // the lower rank goes first; the expansion check below decides either way.
  const Rank r1 = logical[lo].recv.proc;
  const std::size_t first_end = stretch_end(lo);
  std::size_t other = first_end;
  while (in_run(other) && logical[other].recv.proc == r1) other = stretch_end(other);
  if (!in_run(other)) {
    for (std::size_t k = lo; k < first_end; ++k) begins.push_back(logical[k].send);
  } else {
    const Rank r2 = logical[other].recv.proc;
    const std::size_t other_end = stretch_end(other);
    std::size_t a = lo;
    std::size_t c = other;
    while (a < first_end || c < other_end) {
      const bool c_only = c < other_end && logical[c].send.proc == r1;
      const bool a_only = a < first_end && logical[a].send.proc == r2;
      if (c_only && (!a_only || r1 < r2)) {
        begins.push_back(logical[c++].send);
      } else if (a_only) {
        begins.push_back(logical[a++].send);
      } else if (a < first_end && c < other_end && logical[a].send == logical[c].send) {
        begins.push_back(logical[a++].send);
        ++c;
      } else {
        return run_end(lo);
      }
    }
  }
  if (begins.size() < 2) return run_end(lo);

  // The run must be the expansion, end by end.
  std::size_t k = lo;
  while (in_run(k)) {
    const EventRef end = logical[k].recv;
    const std::size_t from = k;
    const std::size_t stop = edge_rules::for_each_other_rank(
        std::span<const EventRef>(begins), 0, end.proc, [](const EventRef& b) { return b.proc; },
        [&](const EventRef& b) {
          return in_run(k) && logical[k].recv == end && logical[k++].send == b;
        });
    if (stop != begins.size() || k == from) return run_end(k);
    ends.push_back(end);
  }
  is_hub = ends.size() >= 2;
  return k;
}

/// Per member of `members`, the number of members of `others` of another rank
/// (its edge count in the hub).  `per_rank` is a zeroed counter per rank, and
/// is left zeroed.
template <class Member, class Fn>
void for_each_degree(std::span<const Member> members, std::span<const Member> others,
                     std::vector<std::uint32_t>& per_rank, Fn&& fn) {
  for (const auto& o : others) ++per_rank[static_cast<std::size_t>(o.rank)];
  for (const auto& m : members) {
    fn(m, static_cast<std::uint32_t>(others.size()) - per_rank[static_cast<std::size_t>(m.rank)]);
  }
  for (const auto& o : others) per_rank[static_cast<std::size_t>(o.rank)] = 0;
}

}  // namespace

ReplaySchedule::ReplaySchedule(const Trace& trace, const std::vector<MessageRecord>& messages,
                               const std::vector<LogicalMessage>& logical)
    : trace_(&trace) {
  CS_SPAN("sync.schedule");
  const int n = trace.ranks();
  prefix_.resize(static_cast<std::size_t>(n) + 1);
  prefix_[0] = 0;
  for (Rank r = 0; r < n; ++r) {
    prefix_[static_cast<std::size_t>(r) + 1] =
        prefix_[static_cast<std::size_t>(r)] +
        static_cast<std::uint32_t>(trace.events(r).size());
  }
  total_ = prefix_.back();

  rank_of_.resize(total_);
  for (Rank r = 0; r < n; ++r) {
    for (std::uint32_t g = prefix_[static_cast<std::size_t>(r)];
         g < prefix_[static_cast<std::size_t>(r) + 1]; ++g) {
      rank_of_[g] = r;
    }
    loc_.push_back(trace.placement().location(r));
  }
  latency_ = trace.domain_min_latency();

  // CSR build: count records, prefix-sum into offsets, then fill, using each
  // event's offset as its fill cursor.  Filling advances every cursor to the
  // next event's offset, so one shift restores the offsets.  p2p messages
  // are filled before logical ones, so each event's incoming edges keep that
  // order.
  in_off_.assign(total_ + 1, 0);
  out_off_.assign(total_ + 1, 0);
  const auto count = [&](const EventRef& send, const EventRef& recv) {
    ++in_off_[global_index(recv) + 1];
    ++out_off_[global_index(send) + 1];
  };

  // Logical degrees first.  A run shaped like a hub is counted per member
  // (its edge count in the hub), every other logical message one by one;
  // a candidate whose members' totals are exactly their hub counts takes part
  // in nothing else and becomes a hub.
  struct Run {
    std::size_t lo, hi;        // its messages: logical[lo, hi)
    std::uint32_t members;     // its begins and ends: members_ from here
    std::uint32_t ends;        // its ends: members_ from here
  };
  std::vector<Run> candidates;
  std::vector<EventRef> begins;
  std::vector<EventRef> ends;
  std::vector<std::uint32_t> per_rank(static_cast<std::size_t>(n), 0);
  const auto span_of = [&](std::uint32_t from, std::uint32_t to) {
    return std::span<const HubMember>(members_.data() + from, members_.data() + to);
  };
  for (std::size_t lo = 0; lo < logical.size();) {
    bool is_hub = false;
    const std::size_t hi = scan_run(logical, lo, begins, ends, is_hub);
    if (!is_hub) {
      for (std::size_t k = lo; k < hi; ++k) count(logical[k].send, logical[k].recv);
      lo = hi;
      continue;
    }
    Run run{lo, hi, static_cast<std::uint32_t>(members_.size()), 0};
    for (const EventRef& b : begins) members_.push_back({global_index(b), b.proc});
    run.ends = static_cast<std::uint32_t>(members_.size());
    for (const EventRef& e : ends) members_.push_back({global_index(e), e.proc});
    const auto end = static_cast<std::uint32_t>(members_.size());
    for_each_degree(span_of(run.ends, end), span_of(run.members, run.ends), per_rank,
                    [&](const HubMember& e, std::uint32_t d) { in_off_[e.event + 1] += d; });
    for_each_degree(span_of(run.members, run.ends), span_of(run.ends, end), per_rank,
                    [&](const HubMember& b, std::uint32_t d) { out_off_[b.event + 1] += d; });
    candidates.push_back(run);
    lo = hi;
  }

  // Keep the candidates whose members take part in nothing else; each of
  // their members gets one record.  Members of the others keep their counts:
  // those runs stay explicit edges.
  const bool colocated = has_colocated_ranks(loc_);
  std::vector<std::pair<std::size_t, std::size_t>> hub_runs;  // logical[] range of each hub
  std::vector<HubMember> kept;
  hub_off_.assign(1, 0);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Run& run = candidates[i];
    const std::uint32_t end = i + 1 < candidates.size() ? candidates[i + 1].members
                                                        : static_cast<std::uint32_t>(members_.size());
    const auto run_begins = span_of(run.members, run.ends);
    const auto run_ends = span_of(run.ends, end);
    bool alone = true;
    for_each_degree(run_ends, run_begins, per_rank, [&](const HubMember& e, std::uint32_t d) {
      alone = alone && in_off_[e.event + 1] == d;
    });
    for_each_degree(run_begins, run_ends, per_rank, [&](const HubMember& b, std::uint32_t d) {
      alone = alone && out_off_[b.event + 1] == d;
    });
    if (!alone) continue;
    // A hub pairing two ranks of one core is an error, as the explicit edge
    // would be: raise it here, with the same typed error.
    if (colocated) {
      for (const HubMember& e : run_ends) {
        for (const HubMember& b : run_begins) {
          if (b.rank != e.rank) (void)trace.min_latency(b.rank, e.rank);
        }
      }
    }
    for (const HubMember& e : run_ends) in_off_[e.event + 1] = 1;
    for (const HubMember& b : run_begins) out_off_[b.event + 1] = 1;
    kept.insert(kept.end(), run_begins.begin(), run_begins.end());
    hub_off_.push_back(static_cast<std::uint32_t>(kept.size()));
    kept.insert(kept.end(), run_ends.begin(), run_ends.end());
    hub_off_.push_back(static_cast<std::uint32_t>(kept.size()));
    hub_runs.emplace_back(run.lo, run.hi);
  }
  members_ = std::move(kept);
  CS_REQUIRE(total_ + hubs() <= std::numeric_limits<std::uint32_t>::max(),
             "too many events and hubs for 32-bit record references");

  for (const auto& msg : messages) count(msg.send, msg.recv);
  for (std::size_t g = 0; g < total_; ++g) {
    in_off_[g + 1] += in_off_[g];
    out_off_[g + 1] += out_off_[g];
  }

  in_recs_.resize(in_off_[total_]);
  out_recs_.resize(out_off_[total_]);
  const auto fill = [&](const EventRef& send, const EventRef& recv, bool is_logical) {
    const std::uint32_t src = global_index(send);
    const std::uint32_t dst = global_index(recv);
    in_recs_[in_off_[dst]++] = {src, is_logical, trace.min_latency(send.proc, recv.proc)};
    out_recs_[out_off_[src]++] = dst;
  };
  for (const auto& msg : messages) fill(msg.send, msg.recv, false);
  std::size_t next_hub = 0;
  for (std::size_t k = 0; k < logical.size();) {
    if (next_hub < hub_runs.size() && hub_runs[next_hub].first == k) {
      // The run is the hub's expansion; its members get one record each.
      const auto h = static_cast<std::uint32_t>(next_hub);
      const auto ref = static_cast<std::uint32_t>(total_) + h;
      for (const HubMember& e : ends_of(h)) in_recs_[in_off_[e.event]++] = {ref, true, 0.0};
      for (const HubMember& b : hub_begins(h)) out_recs_[out_off_[b.event]++] = ref;
      k = hub_runs[next_hub++].second;
      continue;
    }
    fill(logical[k].send, logical[k].recv, true);
    ++k;
  }
  for (std::size_t g = total_; g > 0; --g) {
    in_off_[g] = in_off_[g - 1];
    out_off_[g] = out_off_[g - 1];
  }
  in_off_[0] = 0;
  out_off_[0] = 0;
  edges_ = messages.size() + logical.size();

  if (obs::metrics_enabled()) {
    static obs::Counter& hubs_made = obs::counter("sync.schedule.hubs");
    static obs::Counter& hub_edges = obs::counter("sync.schedule.hub_edges");
    static obs::Counter& explicit_edges = obs::counter("sync.schedule.explicit_edges");
    std::size_t expanded = 0;
    for (const auto& [lo, hi] : hub_runs) expanded += hi - lo;
    hubs_made.add(static_cast<std::int64_t>(hubs()));
    hub_edges.add(static_cast<std::int64_t>(expanded));
    explicit_edges.add(static_cast<std::int64_t>(edges_ - expanded));
  }
}

std::uint32_t ReplaySchedule::global_index(const EventRef& ref) const {
  CS_REQUIRE(ref.proc >= 0 && ref.proc < trace_->ranks(), "rank out of range");
  CS_REQUIRE(ref.index < rank_size(ref.proc), "event index out of range for its rank");
  return prefix_[static_cast<std::size_t>(ref.proc)] + ref.index;
}

EventRef ReplaySchedule::event_ref(std::uint32_t gidx) const {
  CS_REQUIRE(gidx < total_, "global index out of range");
  const Rank r = rank_of_[gidx];
  return {r, gidx - prefix_[static_cast<std::size_t>(r)]};
}

void throw_cyclic_constraints(const EventRef& blocked) {
  throw std::invalid_argument("cyclic constraint graph: rank " + std::to_string(blocked.proc) +
                              " is blocked forever at event " +
                              std::to_string(blocked.index));
}

}  // namespace chronosync
