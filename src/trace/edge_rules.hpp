// The Eq. 1 constraint edges of a trace, defined once.
//
// Every check and repair of the clock condition (t_recv >= t_send + l_min)
// runs over edges taken from the trace: the matched point-to-point messages
// plus the logical messages of the CLC collective extension.  Three rules turn
// a trace into those edges, and every consumer — Trace::match_messages,
// derive_logical_messages, ReplaySchedule, the streaming scanner
// (scan_clock_condition) and the windowed CLC (clc_stream.cpp) — calls the
// ones below, so they agree by construction, malformed inputs included:
//
//   1. pair_latency: l_min between two ranks; 0 for a rank's message to
//      itself, which program order already orders.
//   2. MessageJoin: the online msg_id join over rank-major order.
//   3. for_each_source / for_each_logical_edge: which begins of a collective
//      instance constrain which of its ends.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/expect.hpp"
#include "topology/pinning.hpp"
#include "trace/event.hpp"

namespace chronosync::edge_rules {

// -- 1. pair latency ----------------------------------------------------------

/// Minimum latency of domain `d` (SameChip/SameNode/CrossNode).
inline Duration domain_latency(const std::array<Duration, 3>& latency, CommDomain d) {
  CS_REQUIRE(d != CommDomain::SameCore, "no latency between co-located ranks");
  return latency[static_cast<std::size_t>(d) - 1];
}

/// l_min of Eq. 1 for an edge from rank `a` to rank `b`.  A self-message
/// carries no network latency.  (Recorded receive-first, it is a cycle, which
/// the CLC reports.)
inline Duration pair_latency(const Placement& placement, const std::array<Duration, 3>& latency,
                             Rank a, Rank b) {
  return a == b ? 0.0 : domain_latency(latency, placement.domain(a, b));
}

// -- 2. online msg_id join ----------------------------------------------------

/// Pairs Send and Recv endpoints by msg_id as they are read, rank-major.  An
/// id holds at most one half-open entry: a duplicate endpoint of the same side
/// overwrites it (last wins), the pair is retired the moment its other side
/// arrives, and an endpoint for an already-retired id opens a fresh entry.
/// Whatever is still open at the end is half-matched (a tracing-window edge)
/// and dropped.  Well-formed traces have unique ids, so only malformed inputs
/// can tell this from a whole-trace join.
template <class Endpoint>
class MessageJoin {
 public:
  /// Feeds a send; calls on_pair(send, recv) if it completes a message.
  template <class OnPair>
  void send(std::int64_t id, const Endpoint& ep, OnPair&& on_pair) {
    add(id, true, ep, on_pair);
  }
  /// Feeds a receive; calls on_pair(send, recv) if it completes a message.
  template <class OnPair>
  void recv(std::int64_t id, const Endpoint& ep, OnPair&& on_pair) {
    add(id, false, ep, on_pair);
  }

  /// Half-open entries now, and their high-water mark.
  std::size_t outstanding() const { return open_.size(); }
  std::size_t peak_outstanding() const { return peak_; }

 private:
  struct HalfOpen {
    Endpoint ep;
    bool is_send;
  };

  template <class OnPair>
  void add(std::int64_t id, bool is_send, const Endpoint& ep, OnPair& on_pair) {
    const auto [it, fresh] = open_.try_emplace(id, HalfOpen{ep, is_send});
    if (fresh) {
      peak_ = std::max(peak_, open_.size());
      return;
    }
    if (it->second.is_send == is_send) {
      it->second.ep = ep;
      return;
    }
    const Endpoint other = it->second.ep;
    open_.erase(it);
    if (is_send) {
      on_pair(ep, other);
    } else {
      on_pair(other, ep);
    }
  }

  std::unordered_map<std::int64_t, HalfOpen> open_;
  std::size_t peak_ = 0;
};

// -- 3. collective flavour rule -----------------------------------------------
//
//   * 1-to-N (bcast, scatter): the root's first begin -> every non-root end;
//   * N-to-1 (reduce, gather): every non-root begin -> the root's first end;
//   * N-to-N (the rest):       every begin -> every end of another rank.
//
// Root lookups are first-match: a malformed instance may list a rank twice,
// and the first recorded event is the representative.  The root need not
// take part; then a rooted instance has no edges.

/// Partial instances (cut by a tracing-window edge) have no edges.
inline bool partial_instance(std::size_t begins, std::size_t ends) {
  return begins == 0 || begins != ends;
}

/// Whether an end of rank `end_rank` can take edges at all, before the
/// instance's begins are known.  `root_end_seen` tells whether an earlier end
/// of the root rank exists (the first root end owns the N-to-1 edges).
inline bool end_takes_edges(CollectiveKind kind, Rank root, Rank end_rank, bool root_end_seen) {
  switch (flavor_of(kind)) {
    case CollectiveFlavor::OneToN: return end_rank != root;
    case CollectiveFlavor::NToOne: return end_rank == root && !root_end_seen;
    case CollectiveFlavor::NToN: return true;
  }
  return true;
}

/// Calls fn(begin) for every begin of a complete instance that constrains an
/// end of rank `end_rank`; `rank_of(begin)` projects a begin onto its rank.
template <class Begin, class RankOf, class Fn>
void for_each_source(CollectiveKind kind, Rank root, Rank end_rank, bool root_end_seen,
                     const std::vector<Begin>& begins, RankOf rank_of, Fn&& fn) {
  if (!end_takes_edges(kind, root, end_rank, root_end_seen)) return;
  if (flavor_of(kind) == CollectiveFlavor::OneToN) {
    for (const Begin& b : begins) {
      if (rank_of(b) == root) {
        fn(b);
        return;
      }
    }
    return;
  }
  // N-to-1 (at its root end) and N-to-N alike: every begin of another rank.
  for (const Begin& b : begins) {
    if (rank_of(b) != end_rank) fn(b);
  }
}

/// Calls fn(begin, end) for every logical edge of a complete instance, end by
/// end in `ends` order.
template <class Begin, class End, class RankOf, class Fn>
void for_each_logical_edge(CollectiveKind kind, Rank root, const std::vector<Begin>& begins,
                           const std::vector<End>& ends, RankOf rank_of, Fn&& fn) {
  bool root_end_seen = false;
  for (const End& e : ends) {
    const Rank r = rank_of(e);
    for_each_source(kind, root, r, root_end_seen, begins, rank_of,
                    [&](const Begin& b) { fn(b, e); });
    root_end_seen = root_end_seen || r == root;
  }
}

}  // namespace chronosync::edge_rules
