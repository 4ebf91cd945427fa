// Dependency-ordered trace replay.
//
// The happened-before constraints of a trace form a DAG: per-process program
// order plus one edge per (possibly logical) message from its send to its
// receive.  ReplaySchedule builds dense indexes over that DAG and replays the
// trace so every event is visited after all of its constraint sources — the
// traversal the logical-clock algorithms and the CLC need.
//
// Storage is a flat CSR (compressed sparse row) layout: events are numbered
// globally with each rank's events contiguous (global = rank_begin(r) + i),
// and the incoming/outgoing constraint records of all events live in two flat
// arrays sliced by offset tables.  This keeps the replay hot path free of
// per-event vector indirections and makes rank/index recovery O(1).
//
// Collective hubs.  The CLC collective extension maps an N-to-N collective
// onto logical messages from every begin to every end of another rank: one
// instance of N ranks is N(N-1) edges.  The schedule stores such an instance
// once, as a hub: its ordered begin list B and its end list E.  Each end gets
// one incoming record naming the hub and each begin one outgoing record; an
// end's edges are the begins of B of another rank, in B order
// (edge_rules::for_each_other_rank), each with the l_min of its rank pair.
// The input alone decides the encoding.  The constructor scans `logical` in
// its given order, and a maximal run of messages sharing one coll_id becomes
// a hub only if
//   * expanding the hub reproduces the run edge for edge, in order;
//   * B and E each hold at least two events (1-to-N and N-to-1 runs have one
//     begin or one end, so they stay explicit); and
//   * none of the run's ends and begins takes part in a logical message
//     outside the run.
// Every other run stays explicit CSR edges.  No per-(begin, end) record is
// built or stored, and no code outside replay.{hpp,cpp} sees a hub: consumers
// read edges through three walkers, which visit an event's edges in the order
// an all-explicit build lists them (p2p first, then logical ones in list
// order; verify::CsrSchedule is that build):
//   * scan_incoming(g, at, fn), a resumable walk over g's incoming edges (the
//     CLC driver keeps one EdgeCursor per rank; for_each_incoming runs it
//     once through);
//   * for_each_outgoing(g, fn); and
//   * for_each_timed_edge(ts, fn), every edge with both endpoints' timestamps
//     read from `ts` (the audit, the CSR Eq. 1 scan and node coupling).
// incoming(g) and outgoing(g) copy an event's edges into a vector.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/expect.hpp"
#include "topology/pinning.hpp"
#include "trace/edge_rules.hpp"
#include "trace/logical_messages.hpp"
#include "trace/trace.hpp"

namespace chronosync {

class ReplaySchedule {
 public:
  /// Constraint edge: the target's timestamp must be >= source's + l_min.
  struct ConstraintEdge {
    std::uint32_t source = 0;   ///< global event index
    bool logical = false;       ///< derived from a collective, not a p2p message
    Duration l_min = 0.0;
  };

  /// A resumable position in an event's incoming edges: the CSR record, and
  /// inside a hub's record the position in the hub's begins.
  struct EdgeCursor {
    std::uint32_t record = 0;
    std::uint32_t hub_pos = 0;
  };

  ReplaySchedule(const Trace& trace, const std::vector<MessageRecord>& messages,
                 const std::vector<LogicalMessage>& logical);

  std::size_t events() const { return total_; }
  /// Total number of constraint edges (p2p + logical, each hub edge counted).
  std::size_t edges() const { return edges_; }
  /// Number of collective hubs.
  std::size_t hubs() const { return hub_off_.size() / 2; }

  /// Global index of `ref`; throws std::invalid_argument unless it names an
  /// event of the trace (rank in range, index below that rank's size).
  std::uint32_t global_index(const EventRef& ref) const;
  EventRef event_ref(std::uint32_t gidx) const;

  /// Rank owning a global event index (O(1)).
  Rank rank_of(std::uint32_t gidx) const {
    CS_REQUIRE(gidx < total_, "global index out of range");
    return rank_of_[gidx];
  }
  /// Global index of rank r's event 0.
  std::uint32_t rank_begin(Rank r) const {
    return prefix_[static_cast<std::size_t>(r)];
  }
  /// Number of events of rank r.
  std::uint32_t rank_size(Rank r) const {
    return prefix_[static_cast<std::size_t>(r) + 1] - prefix_[static_cast<std::size_t>(r)];
  }

  /// Incoming constraints of one event (empty for non-receives), in
  /// for_each_incoming order.
  std::vector<ConstraintEdge> incoming(std::uint32_t gidx) const {
    CS_REQUIRE(gidx < total_, "global index out of range");
    std::vector<ConstraintEdge> edges;
    for_each_incoming(gidx, [&](const ConstraintEdge& e) { edges.push_back(e); });
    return edges;
  }
  /// Events constrained by this one, in for_each_outgoing order.
  std::vector<std::uint32_t> outgoing(std::uint32_t gidx) const {
    CS_REQUIRE(gidx < total_, "global index out of range");
    std::vector<std::uint32_t> targets;
    for_each_outgoing(gidx, [&](std::uint32_t target, Duration) { targets.push_back(target); });
    return targets;
  }

  /// Global index of each rank's event 0, plus a final total-events sentinel
  /// (size ranks + 1).
  std::span<const std::uint32_t> rank_offsets() const { return prefix_; }

  /// Cursor on event `g`'s first incoming edge (g <= events(), unchecked).
  EdgeCursor first_edge(std::uint32_t g) const { return {in_off_[g], 0}; }
  /// Calls fn(edge, source_rank) for event `g`'s incoming edges from `at` on,
  /// in for_each_incoming order and without bounds checks, until fn returns
  /// false.  Returns false with `at` left on the edge fn refused, where a
  /// later call resumes; true once every edge was visited, with `at` on
  /// first_edge(g + 1).
  template <class Fn>
  bool scan_incoming(std::uint32_t g, EdgeCursor& at, Fn&& fn) const;
  /// Calls fn(edge) for every incoming edge of event `g`, without bounds
  /// checks: the explicit records in CSR order, then a hub's begins of
  /// another rank, in begin order.
  template <class Fn>
  void for_each_incoming(std::uint32_t g, Fn&& fn) const {
    EdgeCursor at = first_edge(g);
    scan_incoming(g, at, [&](const ConstraintEdge& e, Rank) {
      fn(e);
      return true;
    });
  }
  /// Calls fn(target, l_min) for every outgoing edge of event `g`, without
  /// bounds checks: the explicit records in CSR order, then a hub's ends of
  /// another rank, in end order.
  template <class Fn>
  void for_each_outgoing(std::uint32_t g, Fn&& fn) const;
  /// Calls fn(recv, t_recv, send, t_send, l_min, logical) for every edge,
  /// target by target in rank-major order and each target's edges in
  /// for_each_incoming order, with the endpoints' timestamps read from `ts`.
  /// Throws std::invalid_argument unless `ts` has the trace's shape.
  template <class Fn>
  void for_each_timed_edge(const TimestampArray& ts, Fn&& fn) const;

  /// Visits every event in a dependency-respecting order.  Throws
  /// std::invalid_argument (see throw_cyclic_constraints) if the constraint
  /// graph has a cycle (a malformed trace).
  template <class Visit>
  void replay(Visit&& visit) const;

 private:
  /// One begin or end of a hub.
  struct HubMember {
    std::uint32_t event = 0;  ///< global event index
    Rank rank = 0;            ///< its rank
  };

  static Rank member_rank(const HubMember& m) { return m.rank; }
  /// A hub's begins, in order (hub < hubs()).
  std::span<const HubMember> hub_begins(std::uint32_t hub) const {
    return {members_.data() + hub_off_[2 * std::size_t{hub}],
            members_.data() + hub_off_[2 * std::size_t{hub} + 1]};
  }
  std::span<const HubMember> ends_of(std::uint32_t hub) const {
    return {members_.data() + hub_off_[2 * std::size_t{hub} + 1],
            members_.data() + hub_off_[2 * std::size_t{hub} + 2]};
  }

  /// l_min of an edge from rank `from` to rank `to`, two distinct ranks;
  /// throws for two ranks of one core, as Trace::min_latency does (the
  /// constructor proved no hub pairs such ranks).
  Duration hub_l_min(Rank from, Rank to) const {
    return edge_rules::domain_latency(latency_, classify(loc_[static_cast<std::size_t>(from)],
                                                         loc_[static_cast<std::size_t>(to)]));
  }

  const Trace* trace_;
  std::vector<std::uint32_t> prefix_;  ///< global index of each rank's event 0
  std::size_t total_ = 0;
  std::size_t edges_ = 0;
  std::vector<Rank> rank_of_;          ///< owning rank per global index

  // CSR adjacency: records of event g live at [off[g], off[g+1]).  A record
  // naming events() + h stands for hub h.
  std::vector<std::uint32_t> in_off_;
  std::vector<ConstraintEdge> in_recs_;
  std::vector<std::uint32_t> out_off_;
  std::vector<std::uint32_t> out_recs_;

  // Hub h: begins members_[hub_off_[2h], hub_off_[2h+1]), ends up to
  // hub_off_[2h+2].  hub_off_ holds one leading 0, then two offsets per hub.
  std::vector<std::uint32_t> hub_off_;
  std::vector<HubMember> members_;

  // Eq. 1 latency inputs of the hub edges and of for_each_outgoing's p2p
  // edges (the values Trace::min_latency gives).
  std::vector<CoreLocation> loc_;  ///< per rank
  std::array<Duration, 3> latency_{};
};

/// Reports a cyclic constraint graph — e.g. a receive recorded before its
/// own send on one rank, or two ranks that each receive the other's message
/// before sending their own — by throwing std::invalid_argument that names
/// `blocked`, the first event (lowest rank) that can never become ready.
[[noreturn]] void throw_cyclic_constraints(const EventRef& blocked);

template <class Fn>
bool ReplaySchedule::scan_incoming(std::uint32_t g, EdgeCursor& at, Fn&& fn) const {
  const Rank r = rank_of_[g];
  for (const std::uint32_t end = in_off_[g + 1]; at.record < end; ++at.record) {
    const ConstraintEdge& e = in_recs_[at.record];
    if (e.source < total_) {
      if (!fn(e, rank_of_[e.source])) return false;
      continue;
    }
    const auto begins = hub_begins(e.source - static_cast<std::uint32_t>(total_));
    const std::size_t stop = edge_rules::for_each_other_rank(
        begins, at.hub_pos, r, member_rank, [&](const HubMember& b) {
          return fn(ConstraintEdge{b.event, true, hub_l_min(b.rank, r)}, b.rank);
        });
    if (stop < begins.size()) {
      at.hub_pos = static_cast<std::uint32_t>(stop);
      return false;
    }
    at.hub_pos = 0;
  }
  return true;
}

template <class Fn>
void ReplaySchedule::for_each_outgoing(std::uint32_t g, Fn&& fn) const {
  const Rank r = rank_of_[g];
  for (std::uint32_t k = out_off_[g]; k < out_off_[g + 1]; ++k) {
    const std::uint32_t target = out_recs_[k];
    if (target < total_) {
      const Rank to = rank_of_[target];
      fn(target, to == r ? 0.0 : hub_l_min(r, to));
      continue;
    }
    edge_rules::for_each_other_rank(ends_of(target - static_cast<std::uint32_t>(total_)), 0, r,
                                    member_rank, [&](const HubMember& e) {
                                      fn(e.event, hub_l_min(r, e.rank));
                                      return true;
                                    });
  }
}

template <class Fn>
void ReplaySchedule::for_each_timed_edge(const TimestampArray& ts, Fn&& fn) const {
  const int n = trace_->ranks();
  CS_REQUIRE(ts.ranks() == n, "timestamp array rank count mismatch");
  std::vector<const Time*> rows(static_cast<std::size_t>(n));
  for (Rank r = 0; r < n; ++r) {
    CS_REQUIRE(ts.of_rank(r).size() == rank_size(r), "timestamp array shape differs from trace");
    rows[static_cast<std::size_t>(r)] = ts.of_rank(r).data();
  }
  const auto ref_of = [&](Rank r, std::uint32_t g) {
    return EventRef{r, g - prefix_[static_cast<std::size_t>(r)]};
  };
  const auto time_at = [&](const EventRef& ref) {
    return rows[static_cast<std::size_t>(ref.proc)][ref.index];
  };

  // A hub's begins sit in every rank's row, so their timestamps are first
  // gathered hub by hub into one small array, which a hub end then reads
  // (skipping its own rank) instead of reading the rows.
  std::vector<std::uint32_t> hub_first(hubs());
  std::vector<Time> hub_ts;
  for (std::uint32_t h = 0; h < hubs(); ++h) {
    hub_first[h] = static_cast<std::uint32_t>(hub_ts.size());
    for (const HubMember& b : hub_begins(h)) hub_ts.push_back(time_at(ref_of(b.rank, b.event)));
  }

  for (Rank r = 0; r < n; ++r) {
    const std::uint32_t first = prefix_[static_cast<std::size_t>(r)];
    const std::uint32_t size = rank_size(r);
    for (std::uint32_t i = 0; i < size; ++i) {
      const EventRef recv{r, i};
      const Time t_recv = rows[static_cast<std::size_t>(r)][i];
      for (std::uint32_t k = in_off_[first + i]; k < in_off_[first + i + 1]; ++k) {
        const ConstraintEdge& e = in_recs_[k];
        if (e.source < total_) {
          const EventRef send = ref_of(rank_of_[e.source], e.source);
          fn(recv, t_recv, send, time_at(send), e.l_min, e.logical);
          continue;
        }
        const std::uint32_t h = e.source - static_cast<std::uint32_t>(total_);
        const auto begins = hub_begins(h);
        const Time* const sent = hub_ts.data() + hub_first[h];
        edge_rules::for_each_other_rank(begins, 0, r, member_rank, [&](const HubMember& b) {
          fn(recv, t_recv, ref_of(b.rank, b.event), sent[&b - begins.data()],
             hub_l_min(b.rank, r), true);
          return true;
        });
      }
    }
  }
}

/// Dependency-order replay over any schedule with events(), rank_begin(),
/// rank_size(), rank_of(), for_each_incoming(g, fn) and for_each_outgoing(g,
/// fn): ranks drain in FIFO order, each until its next event waits for a
/// constraint source.  Only the edges' endpoints are read.
template <class Schedule, class Visit>
void replay_in_dependency_order(const Schedule& s, int ranks, Visit&& visit) {
  const auto total = static_cast<std::uint32_t>(s.events());
  const auto n = static_cast<std::size_t>(ranks);

  // Remaining unvisited constraint sources per event.
  std::vector<std::uint32_t> pending(total);
  for (std::uint32_t g = 0; g < total; ++g) {
    s.for_each_incoming(g, [&](const auto&) { ++pending[g]; });
  }

  std::vector<std::uint32_t> cursor(n, 0);
  std::vector<char> queued(n, 0);
  // FIFO of runnable ranks; a plain vector with a head index (total enqueues
  // are bounded by the edge count, so the tail never rewinds).
  std::vector<Rank> ready;
  ready.reserve(n);
  std::size_t head = 0;

  auto cursor_gidx = [&](Rank r) { return s.rank_begin(r) + cursor[static_cast<std::size_t>(r)]; };
  auto enqueue_if_ready = [&](Rank r) {
    const auto c = cursor[static_cast<std::size_t>(r)];
    if (c >= s.rank_size(r)) return;
    if (pending[cursor_gidx(r)] != 0) return;
    if (queued[static_cast<std::size_t>(r)]) return;
    queued[static_cast<std::size_t>(r)] = 1;
    ready.push_back(r);
  };

  for (Rank r = 0; r < ranks; ++r) enqueue_if_ready(r);

  std::size_t visited = 0;
  while (head < ready.size()) {
    const Rank r = ready[head++];
    queued[static_cast<std::size_t>(r)] = 0;

    // Drain this process until its next event is blocked.
    while (cursor[static_cast<std::size_t>(r)] < s.rank_size(r) &&
           pending[cursor_gidx(r)] == 0) {
      const std::uint32_t g = cursor_gidx(r);
      const EventRef ref{r, cursor[static_cast<std::size_t>(r)]};
      visit(g, ref);
      ++visited;
      ++cursor[static_cast<std::size_t>(r)];
      s.for_each_outgoing(g, [&](std::uint32_t dep, Duration) {
        CS_ENSURE(pending[dep] > 0, "dependency counting corrupted");
        --pending[dep];
        if (pending[dep] == 0) {
          // The dependent becomes processable only once its process cursor
          // reaches it; check and enqueue the owning process.
          const Rank dr = s.rank_of(dep);
          if (cursor_gidx(dr) == dep) enqueue_if_ready(dr);
        }
      });
    }
  }

  if (visited == total) return;
  for (Rank r = 0; r < ranks; ++r) {
    if (cursor[static_cast<std::size_t>(r)] < s.rank_size(r)) {
      throw_cyclic_constraints({r, cursor[static_cast<std::size_t>(r)]});
    }
  }
}

template <class Visit>
void ReplaySchedule::replay(Visit&& visit) const {
  replay_in_dependency_order(*this, trace_->ranks(), visit);
}

}  // namespace chronosync
