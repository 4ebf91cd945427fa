// Edge-for-edge comparison of two constraint schedules (ReplaySchedule,
// verify::CsrSchedule): same events and edge count, and per event the same
// incoming edges (source, logical flag, l_min bits) and outgoing targets, in
// order.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "random_trace.hpp"

namespace chronosync::testutil {

template <class A, class B>
void expect_same_edges(const A& a, const B& b) {
  ASSERT_EQ(a.events(), b.events());
  ASSERT_EQ(a.edges(), b.edges());
  for (std::uint32_t g = 0; g < a.events(); ++g) {
    const auto in_a = a.incoming(g);
    const auto in_b = b.incoming(g);
    ASSERT_EQ(std::distance(in_a.begin(), in_a.end()), std::distance(in_b.begin(), in_b.end()))
        << "in-degree of " << g;
    auto ib = in_b.begin();
    for (auto ia = in_a.begin(); ia != in_a.end(); ++ia, ++ib) {
      const auto ea = *ia;
      const auto eb = *ib;
      ASSERT_EQ(ea.source, eb.source) << "in-edge of " << g;
      ASSERT_EQ(ea.logical, eb.logical) << "in-edge of " << g;
      ASSERT_TRUE(same_bits(ea.l_min, eb.l_min)) << "in-edge of " << g;
    }
    const auto out_a = a.outgoing(g);
    const auto out_b = b.outgoing(g);
    ASSERT_EQ(std::vector<std::uint32_t>(out_a.begin(), out_a.end()),
              std::vector<std::uint32_t>(out_b.begin(), out_b.end()))
        << "out-edges of " << g;
  }
}

}  // namespace chronosync::testutil
