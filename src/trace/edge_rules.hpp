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
#include <utility>
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
///
/// The half-open entries live in 256 flat open-addressing tables picked by
/// the top byte of a Fibonacci hash of the id; the next bits give the home
/// slot.  Each table probes linearly, deletes by backward shift (no
/// tombstones), and doubles on its own at a load above 3/4, so growth never
/// holds two copies of the whole join at once.  Entries are (id, endpoint)
/// slots beside a one-byte state array that records the side.
template <class Endpoint>
class MessageJoin {
 public:
  static constexpr int kPartitionBits = 8;
  static constexpr std::uint64_t kHashMultiplier = 0x9E3779B97F4A7C15ull;  // 2^64 / phi

  /// The id's hash: its top kPartitionBits pick the table.  Multiplying the
  /// unsigned cast wraps instead of overflowing.
  static std::uint64_t hash(std::int64_t id) {
    return static_cast<std::uint64_t>(id) * kHashMultiplier;
  }

  /// Feeds a send; calls on_pair(send, recv) if it completes a message.
  template <class OnPair>
  void send(std::int64_t id, const Endpoint& ep, OnPair&& on_pair) {
    add(id, kSend, ep, on_pair);
  }
  /// Feeds a receive; calls on_pair(send, recv) if it completes a message.
  template <class OnPair>
  void recv(std::int64_t id, const Endpoint& ep, OnPair&& on_pair) {
    add(id, kRecv, ep, on_pair);
  }

  /// Half-open entries now, and their high-water mark.
  std::size_t outstanding() const { return open_; }
  std::size_t peak_outstanding() const { return peak_; }

 private:
  enum : std::uint8_t { kEmpty = 0, kSend = 1, kRecv = 2 };
  static constexpr int kMinSlotBits = 4;

  struct Slot {
    std::int64_t id = 0;
    Endpoint ep;
  };

  /// One linear-probing table of mask + 1 slots (none before its first entry).
  struct Table {
    std::vector<std::uint8_t> state;
    std::vector<Slot> slots;
    std::size_t mask = 0;
    std::size_t used = 0;
    std::size_t limit = 0;  ///< 3/4 of the slots: the most entries before doubling
    int shift = 64;  ///< 64 - log2(slots): home slot = hash bits below the table byte

    std::size_t home(std::uint64_t h) const {
      return static_cast<std::size_t>((h << kPartitionBits) >> shift);
    }
    /// Index of `id`'s entry, or of the empty slot that ends its probe.
    std::size_t find(std::int64_t id, std::uint64_t h) const {
      std::size_t i = home(h);
      while (state[i] != kEmpty && slots[i].id != id) i = (i + 1) & mask;
      return i;
    }
    void grow() {
      const std::size_t size = slots.empty() ? std::size_t{1} << kMinSlotBits : 2 * slots.size();
      Table bigger;
      bigger.state.assign(size, kEmpty);
      bigger.slots.resize(size);
      bigger.mask = size - 1;
      bigger.limit = size / 4 * 3;
      bigger.shift = shift - (slots.empty() ? kMinSlotBits : 1);
      bigger.used = used;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (state[i] == kEmpty) continue;
        const std::size_t j = bigger.find(slots[i].id, hash(slots[i].id));
        bigger.state[j] = state[i];
        bigger.slots[j] = slots[i];
      }
      *this = std::move(bigger);
    }
    /// Empties slot i, shifting later entries of its probe run back so
    /// every entry stays reachable from its home slot.
    void erase(std::size_t i) {
      for (std::size_t j = (i + 1) & mask; state[j] != kEmpty; j = (j + 1) & mask) {
        // The entry at j may fill the hole at i unless its home lies in (i, j].
        const std::size_t k = home(hash(slots[j].id));
        if (((j - k) & mask) >= ((j - i) & mask)) {
          state[i] = state[j];
          slots[i] = slots[j];
          i = j;
        }
      }
      state[i] = kEmpty;
      --used;
    }
  };

  template <class OnPair>
  void add(std::int64_t id, std::uint8_t side, const Endpoint& ep, OnPair& on_pair) {
    const std::uint64_t h = hash(id);
    Table& t = tables_[static_cast<std::size_t>(h >> (64 - kPartitionBits))];
    // A full table doubles first, so a fresh id always finds an empty slot.
    if (t.used == t.limit) t.grow();
    const std::size_t i = t.find(id, h);
    if (t.state[i] == kEmpty) {
      t.state[i] = side;
      t.slots[i] = Slot{id, ep};
      ++t.used;
      peak_ = std::max(peak_, ++open_);
      return;
    }
    if (t.state[i] == side) {
      t.slots[i].ep = ep;
      return;
    }
    const Endpoint other = t.slots[i].ep;
    t.erase(i);
    --open_;
    if (side == kSend) {
      on_pair(ep, other);
    } else {
      on_pair(other, ep);
    }
  }

  std::vector<Table> tables_ = std::vector<Table>(std::size_t{1} << kPartitionBits);
  std::size_t open_ = 0;
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
