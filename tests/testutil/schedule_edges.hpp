// Edge-for-edge comparison of two constraint schedules (ReplaySchedule,
// verify::CsrSchedule) through their edge callbacks: same events and edge
// count, and per event the same incoming edges (source, logical flag, l_min
// bits) and outgoing edges (target, l_min bits), in order.  The first
// schedule's resumable scan_incoming and its for_each_timed_edge must visit
// the same incoming edges.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <tuple>
#include <vector>

#include "random_trace.hpp"

namespace chronosync::testutil {

/// g's incoming edges as for_each_incoming visits them: (source, logical,
/// l_min bits).
template <class S>
std::vector<std::tuple<std::uint32_t, bool, std::uint64_t>> incoming_edges(const S& s,
                                                                           std::uint32_t g) {
  std::vector<std::tuple<std::uint32_t, bool, std::uint64_t>> out;
  s.for_each_incoming(g, [&](const auto& e) {
    out.emplace_back(e.source, e.logical, std::bit_cast<std::uint64_t>(e.l_min));
  });
  return out;
}

/// g's outgoing edges as for_each_outgoing visits them: (target, l_min bits).
template <class S>
std::vector<std::tuple<std::uint32_t, std::uint64_t>> outgoing_edges(const S& s,
                                                                     std::uint32_t g) {
  std::vector<std::tuple<std::uint32_t, std::uint64_t>> out;
  s.for_each_outgoing(g, [&](std::uint32_t target, Duration l_min) {
    out.emplace_back(target, std::bit_cast<std::uint64_t>(l_min));
  });
  return out;
}

/// g's incoming edges as s.scan_incoming visits them when refused every
/// (k + 1)-th call and resumed from where it stopped: each refused edge is
/// visited again first, so the accepted ones are every edge once.  Also
/// checks each edge's source rank and that the scan ends on first_edge(g + 1).
template <class S>
std::vector<std::tuple<std::uint32_t, bool, std::uint64_t>> resumed_incoming_edges(
    const S& s, std::uint32_t g, int k) {
  std::vector<std::tuple<std::uint32_t, bool, std::uint64_t>> out;
  auto at = s.first_edge(g);
  int calls = 0;
  while (!s.scan_incoming(g, at, [&](const auto& e, Rank source_rank) {
    if (++calls % (k + 1) == 0) return false;
    EXPECT_EQ(source_rank, s.rank_of(e.source)) << "source rank of an in-edge of " << g;
    out.emplace_back(e.source, e.logical, std::bit_cast<std::uint64_t>(e.l_min));
    return true;
  })) {
  }
  const auto next = s.first_edge(g + 1);
  EXPECT_TRUE(at.record == next.record && at.hub_pos == next.hub_pos)
      << "scan of " << g << " ends off the next event";
  return out;
}

/// `a` and `b` visit the same edges; `a`'s incoming(g) and outgoing(g) hold
/// as many as its callbacks visit; `a`'s scan_incoming, stopped and resumed,
/// and its for_each_timed_edge visit the same incoming edges as `b`.
template <class A, class B>
void expect_same_edges(const A& a, const B& b) {
  ASSERT_EQ(a.events(), b.events());
  ASSERT_EQ(a.edges(), b.edges());
  for (std::uint32_t g = 0; g < a.events(); ++g) {
    const auto in_a = incoming_edges(a, g);
    const auto in_b = incoming_edges(b, g);
    ASSERT_EQ(in_a, in_b) << "in-edges of " << g;
    ASSERT_EQ(a.incoming(g).size(), in_a.size()) << "incoming(" << g << ")";
    for (const int k : {1, 2, 3, 7}) {
      ASSERT_EQ(resumed_incoming_edges(a, g, k), in_b) << "in-edges of " << g << ", k " << k;
    }
    const auto out_a = outgoing_edges(a, g);
    ASSERT_EQ(out_a, outgoing_edges(b, g)) << "out-edges of " << g;
    ASSERT_EQ(a.outgoing(g).size(), out_a.size()) << "outgoing(" << g << ")";
  }

  // Timed edges over an array of distinct values: target by target in global
  // (rank-major) order, each target's edges in `b`'s order, both endpoints'
  // values read from the array.
  const auto value = [](std::uint32_t g) { return 1.0 + 0.5 * g; };
  const auto ranks = static_cast<int>(a.rank_offsets().size()) - 1;
  TimestampArray ts(ranks);
  for (Rank r = 0; r < ranks; ++r) {
    for (std::uint32_t i = 0; i < a.rank_size(r); ++i) {
      ts.of_rank(r).push_back(value(a.rank_begin(r) + i));
    }
  }
  using TimedEdge = std::tuple<std::uint32_t, Time, std::uint32_t, Time, std::uint64_t, bool>;
  std::vector<TimedEdge> want;
  for (std::uint32_t g = 0; g < b.events(); ++g) {
    b.for_each_incoming(g, [&](const auto& e) {
      want.emplace_back(g, value(g), e.source, value(e.source),
                        std::bit_cast<std::uint64_t>(e.l_min), e.logical);
    });
  }
  std::vector<TimedEdge> got;
  a.for_each_timed_edge(ts, [&](const EventRef& recv, Time t_recv, const EventRef& send,
                                Time t_send, Duration l_min, bool logical) {
    got.emplace_back(a.global_index(recv), t_recv, a.global_index(send), t_send,
                     std::bit_cast<std::uint64_t>(l_min), logical);
  });
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) ASSERT_EQ(got[k], want[k]) << "timed edge " << k;
}

}  // namespace chronosync::testutil
