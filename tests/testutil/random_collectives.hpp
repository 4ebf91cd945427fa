// Random collective instances for the edge-rule and hub-encoding suites.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "topology/cluster.hpp"
#include "topology/pinning.hpp"
#include "trace/trace.hpp"

namespace chronosync::testutil {

/// One collective endpoint event.
inline Event coll(EventType type, CollectiveKind kind, std::int64_t id, Rank root, Time ts) {
  Event e;
  e.type = type;
  e.coll = kind;
  e.coll_id = id;
  e.root = root;
  e.local_ts = e.true_ts = ts;
  return e;
}

/// Random collective instances over every kind: random roots (sometimes a
/// rank that never takes part), ranks recording a begin or end twice, and
/// partial instances with a missing or extra event.
inline Trace random_collectives(std::uint64_t seed) {
  Rng rng(seed);
  const int ranks = static_cast<int>(rng.uniform_int(2, 5));
  Trace t(pinning::block(clusters::xeon_rwth(), ranks), {1e-7, 1e-6, 5e-6}, "flavours");
  std::vector<Time> now(static_cast<std::size_t>(ranks), 0.0);
  const int instances = static_cast<int>(rng.uniform_int(1, 4));
  for (int k = 0; k < instances; ++k) {
    const auto kind = static_cast<CollectiveKind>(rng.uniform_int(0, 7));
    std::vector<Rank> members;
    for (Rank r = 0; r < ranks; ++r) {
      if (rng.bernoulli(0.8)) members.push_back(r);
    }
    Rank root = static_cast<Rank>(rng.uniform_int(0, ranks - 1));
    if (rng.bernoulli(0.2)) {
      for (Rank r = 0; r < ranks; ++r) {
        if (std::find(members.begin(), members.end(), r) == members.end()) root = r;
      }
    }
    for (const Rank r : members) {
      auto count = [&] { return rng.bernoulli(0.15) ? rng.uniform_int(0, 2) : 1; };
      const auto begins = count();
      const auto ends = count();
      auto& ts = now[static_cast<std::size_t>(r)];
      for (std::int64_t i = 0; i < begins; ++i) {
        t.events(r).push_back(coll(EventType::CollBegin, kind, k, root, ts += rng.uniform()));
      }
      for (std::int64_t i = 0; i < ends; ++i) {
        t.events(r).push_back(coll(EventType::CollEnd, kind, k, root, ts += rng.uniform()));
      }
    }
  }
  return t;
}

}  // namespace chronosync::testutil
