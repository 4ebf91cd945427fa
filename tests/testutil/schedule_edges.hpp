// Edge-for-edge comparison of two constraint schedules (ReplaySchedule,
// verify::CsrSchedule) through their edge callbacks: same events and edge
// count, and per event the same incoming edges (source, logical flag, l_min
// bits) and outgoing edges (target, l_min bits), in order.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
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

/// `a` and `b` visit the same edges; `a`'s incoming(g) and outgoing(g) hold
/// as many as its callbacks visit.
template <class A, class B>
void expect_same_edges(const A& a, const B& b) {
  ASSERT_EQ(a.events(), b.events());
  ASSERT_EQ(a.edges(), b.edges());
  for (std::uint32_t g = 0; g < a.events(); ++g) {
    const auto in_a = incoming_edges(a, g);
    ASSERT_EQ(in_a, incoming_edges(b, g)) << "in-edges of " << g;
    ASSERT_EQ(a.incoming(g).size(), in_a.size()) << "incoming(" << g << ")";
    const auto out_a = outgoing_edges(a, g);
    ASSERT_EQ(out_a, outgoing_edges(b, g)) << "out-edges of " << g;
    ASSERT_EQ(a.outgoing(g).size(), out_a.size()) << "outgoing(" << g << ")";
  }
}

}  // namespace chronosync::testutil
