// Shared test fixtures for the trace-I/O battery: a randomized structurally
// valid trace generator and a bit-exact trace comparison.  Used by the
// round-trip property suite, the mutation-corpus fuzz tests, and the
// streaming-analysis equivalence tests.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "topology/cluster.hpp"
#include "trace/stream_io.hpp"
#include "trace/trace.hpp"

namespace chronosync::testutil {

/// Generates a random but structurally valid trace covering all event types,
/// empty ranks, unmatched messages, and (optionally) extreme-but-finite
/// doubles for the timestamps.
inline Trace random_trace(std::uint64_t seed, bool extreme_doubles = false) {
  Rng rng(seed);
  const int ranks = static_cast<int>(rng.uniform_int(1, 6));
  Trace t(pinning::block(clusters::xeon_rwth(), ranks),
          {rng.uniform(1e-7, 1e-6), rng.uniform(1e-6, 2e-6), rng.uniform(2e-6, 9e-6)},
          "fuzz-timer");
  const int nregions = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < nregions; ++i) t.intern_region("region_" + std::to_string(i));

  // NaN-free extremes: serialization must round-trip every finite double
  // bit-exactly, including signed zeros, denormals, and the range ends.
  static constexpr double kExtremes[] = {
      0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
      -1.7976931348623157e308, 1e-9, 3600.0, 1.0 + 2.220446049250313e-16, -1e308,
  };
  constexpr std::size_t kNumExtremes = sizeof(kExtremes) / sizeof(kExtremes[0]);

  // Message ids are rank-scoped so a random Recv can never pair with a Send
  // on the same rank (self-messages have no defined latency).
  std::vector<std::int64_t> next_send(static_cast<std::size_t>(ranks), 0);
  for (Rank r = 0; r < ranks; ++r) {
    Time now = rng.uniform(0.0, 1.0);
    const int n = static_cast<int>(rng.uniform_int(0, 60));
    for (int i = 0; i < n; ++i) {
      Event e;
      const int kind = static_cast<int>(rng.uniform_int(0, 5));
      switch (kind) {
        case 0:
          e.type = EventType::Enter;
          e.region = nregions ? static_cast<std::int32_t>(rng.uniform_int(0, nregions - 1)) : -1;
          break;
        case 1:
          e.type = EventType::Exit;
          e.region = nregions ? static_cast<std::int32_t>(rng.uniform_int(0, nregions - 1)) : -1;
          break;
        case 2:
          e.type = EventType::Send;
          e.peer = static_cast<Rank>(rng.uniform_int(0, ranks - 1));
          e.tag = static_cast<Tag>(rng.uniform_int(0, 9));
          e.bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
          e.msg_id = 1000000LL * r + next_send[static_cast<std::size_t>(r)]++;
          break;
        case 3: {
          e.type = EventType::Recv;
          e.peer = static_cast<Rank>(rng.uniform_int(0, ranks - 1));
          // Maybe match a send of another rank; otherwise stay half-matched.
          const Rank other = static_cast<Rank>(rng.uniform_int(0, ranks - 1));
          const std::int64_t sent = next_send[static_cast<std::size_t>(other)];
          e.msg_id = (other != r && sent > 0 && rng.bernoulli(0.5))
                         ? 1000000LL * other + rng.uniform_int(0, sent - 1)
                         : 1000000000LL + 1000000LL * r +
                               next_send[static_cast<std::size_t>(r)]++;
          break;
        }
        case 4:
          e.type = static_cast<EventType>(rng.uniform_int(
              static_cast<int>(EventType::Fork), static_cast<int>(EventType::BarrierExit)));
          e.omp_instance = static_cast<std::int32_t>(rng.uniform_int(0, 3));
          break;
        default:
          e.type = rng.bernoulli(0.5) ? EventType::CollBegin : EventType::CollEnd;
          e.coll = static_cast<CollectiveKind>(rng.uniform_int(0, 7));
          e.coll_id = rng.uniform_int(0, 5);
          e.root = 0;
          break;
      }
      now += rng.uniform(0.0, 1e-3);
      if (extreme_doubles) {
        e.local_ts = kExtremes[rng.uniform_int(0, kNumExtremes - 1)];
        e.true_ts = kExtremes[rng.uniform_int(0, kNumExtremes - 1)];
      } else {
        e.local_ts = now;
        e.true_ts = now + rng.normal(0.0, 1e-6);
      }
      e.thread = static_cast<ThreadId>(rng.uniform_int(0, 2));
      t.events(r).push_back(e);
    }
  }
  return t;
}

/// Bit-exact double comparison: distinguishes +0.0 from -0.0.
inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Field-by-field event equality, bit-exact on timestamps.
inline bool same_event(const Event& x, const Event& y) {
  return x.type == y.type && same_bits(x.local_ts, y.local_ts) &&
         same_bits(x.true_ts, y.true_ts) && x.region == y.region && x.peer == y.peer &&
         x.tag == y.tag && x.bytes == y.bytes && x.msg_id == y.msg_id && x.coll == y.coll &&
         x.coll_id == y.coll_id && x.root == y.root && x.omp_instance == y.omp_instance &&
         x.thread == y.thread;
}

/// An event's EdgeRecord, as the readers' compact decode projects it.
inline EdgeRecord edge_record_of(const Event& e) {
  const bool collective = e.type == EventType::CollBegin || e.type == EventType::CollEnd;
  return {e.local_ts, collective ? e.coll_id : e.msg_id, e.root, e.type, e.coll};
}

/// Field-by-field record equality, bit-exact on the timestamp.
inline bool same_record(const EdgeRecord& x, const EdgeRecord& y) {
  return same_bits(x.local_ts, y.local_ts) && x.id == y.id && x.root == y.root &&
         x.type == y.type && x.coll == y.coll;
}

/// Field-by-field trace equality, bit-exact on timestamps.
inline bool traces_equal(const Trace& a, const Trace& b) {
  if (a.ranks() != b.ranks() || a.timer_name() != b.timer_name()) return false;
  if (a.regions() != b.regions()) return false;
  for (std::size_t d = 0; d < 3; ++d) {
    if (!same_bits(a.domain_min_latency()[d], b.domain_min_latency()[d])) return false;
  }
  for (Rank r = 0; r < a.ranks(); ++r) {
    if (!(a.placement().location(r) == b.placement().location(r))) return false;
    const auto& ea = a.events(r);
    const auto& eb = b.events(r);
    if (ea.size() != eb.size()) return false;
    if (!std::equal(ea.begin(), ea.end(), eb.begin(), same_event)) return false;
  }
  return true;
}

}  // namespace chronosync::testutil
