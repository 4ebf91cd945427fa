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
//   2. MessageJoin: the online msg_id join over rank-major order, on the
//      IdTable that also holds the windowed CLC's pairing state; and
//      SeenEndpoints, which proves an out-of-order join pairs the same way.
//   3. for_each_source / for_each_logical_edge: which begins of a collective
//      instance constrain which of its ends; for_each_other_rank is their
//      N-to-N branch, which ReplaySchedule's collective hubs expand with.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
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

// -- 2. id-keyed pairing state and the online msg_id join ----------------------

/// Flat hash table from int64 ids (msg_id, coll_id) to `Value`: the pairing
/// state of every consumer that joins events by id — MessageJoin below and
/// the windowed CLC's message, spill and collective tables.
///
/// The entries live in 256 flat open-addressing tables picked by the top
/// byte of a Fibonacci hash of the id; the next bits give the home slot.
/// Each table probes linearly, deletes by backward shift (no tombstones), and
/// doubles on its own at a load above 3/4, so growth moves one table's
/// entries at a time and never holds two copies of the whole.  Entries are
/// (id, value) slots beside a one-byte state array.  An occupied slot's state
/// is a nonzero mark chosen by the caller (MessageJoin records an endpoint's
/// side there), so the mark costs no slot padding.
template <class Value>
class IdTable {
  struct Part;

 public:
  static constexpr int kPartitionBits = 8;
  static constexpr std::uint64_t kHashMultiplier = 0x9E3779B97F4A7C15ull;  // 2^64 / phi

  /// The id's hash: its top kPartitionBits pick the table.  Multiplying the
  /// unsigned cast wraps instead of overflowing.
  static std::uint64_t hash(std::int64_t id) {
    return static_cast<std::uint64_t>(id) * kHashMultiplier;
  }

  /// A probed position: `id`'s entry, or the empty slot its insertion takes.
  /// Valid until the table's next insertion or removal.
  class Slot {
   public:
    bool found() const { return part_->state[i_] != kEmpty; }
    std::uint8_t mark() const { return part_->state[i_]; }
    Value& value() const { return part_->slots[i_].value; }
    /// Fills the empty slot with the probed id, `value` and `mark` (nonzero).
    void insert(Value value, std::uint8_t mark = 1) {
      part_->state[i_] = mark;
      part_->slots[i_] = Entry{id_, std::move(value)};
      ++part_->used;
      ++table_->size_;
    }
    /// Removes the found entry.
    void erase() { table_->erase_at(*part_, i_); }

   private:
    friend class IdTable;
    Slot(IdTable* table, Part* part, std::size_t i, std::int64_t id)
        : table_(table), part_(part), i_(i), id_(id) {}
    IdTable* table_;
    Part* part_;
    std::size_t i_;
    std::int64_t id_;
  };

  /// Probes for `id`.  A full table doubles first, so the slot of an absent
  /// id is free to fill.
  Slot probe(std::int64_t id) {
    const std::uint64_t h = hash(id);
    Part& p = part_of(h);
    if (p.used == p.limit) p.grow();
    return Slot(this, &p, p.find(id, h), id);
  }

  /// `id`'s value, or null.  Never grows a table.
  Value* find(std::int64_t id) {
    const std::uint64_t h = hash(id);
    Part& p = part_of(h);
    if (p.used == 0) return nullptr;
    const std::size_t i = p.find(id, h);
    return p.state[i] == kEmpty ? nullptr : &p.slots[i].value;
  }

  /// `id`'s value, value-initialised under mark 1 first if absent.
  Value& operator[](std::int64_t id) {
    Slot s = probe(id);
    if (!s.found()) s.insert(Value{});
    return s.value();
  }

  /// Removes `id`'s entry; false if there is none.
  bool erase(std::int64_t id) {
    const std::uint64_t h = hash(id);
    Part& p = part_of(h);
    if (p.used == 0) return false;
    const std::size_t i = p.find(id, h);
    if (p.state[i] == kEmpty) return false;
    erase_at(p, i);
    return true;
  }

  /// Calls pred(id, value) exactly once per entry, in no defined order, and
  /// removes the entries it returns true for.  pred must not insert into or
  /// remove from the table.
  template <class Pred>
  void erase_if(Pred&& pred) {
    for (Part& p : parts_) {
      if (p.used == 0) continue;
      // Walk the table once around, starting just after an empty slot (one
      // exists at load <= 3/4).  A backward shift then only moves entries
      // not yet visited into the slot being visited, never past the start.
      std::size_t i = 0;
      while (p.state[i] != kEmpty) ++i;
      i = (i + 1) & p.mask;
      for (std::size_t left = p.mask; left > 0;) {
        if (p.state[i] != kEmpty && pred(p.slots[i].id, p.slots[i].value)) {
          erase_at(p, i);  // slot i may now hold a later entry: visit it again
          continue;
        }
        i = (i + 1) & p.mask;
        --left;
      }
    }
  }

  std::size_t size() const { return size_; }

 private:
  enum : std::uint8_t { kEmpty = 0 };
  static constexpr int kMinSlotBits = 4;

  struct Entry {
    std::int64_t id = 0;
    Value value{};
  };

  /// One linear-probing table of mask + 1 slots (none before its first entry).
  struct Part {
    std::vector<std::uint8_t> state;
    std::vector<Entry> slots;
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
      Part bigger;
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
        bigger.slots[j] = std::move(slots[i]);
      }
      *this = std::move(bigger);
    }
  };

  Part& part_of(std::uint64_t h) {
    return parts_[static_cast<std::size_t>(h >> (64 - kPartitionBits))];
  }

  /// Empties slot i of `p`, shifting later entries of its probe run back so
  /// every entry stays reachable from its home slot.
  void erase_at(Part& p, std::size_t i) {
    for (std::size_t j = (i + 1) & p.mask; p.state[j] != kEmpty; j = (j + 1) & p.mask) {
      // The entry at j may fill the hole at i unless its home lies in (i, j].
      const std::size_t k = p.home(hash(p.slots[j].id));
      if (((j - k) & p.mask) >= ((j - i) & p.mask)) {
        p.state[i] = p.state[j];
        p.slots[i] = std::move(p.slots[j]);
        i = j;
      }
    }
    p.state[i] = kEmpty;
    if constexpr (!std::is_trivially_copyable_v<Value>) {
      p.slots[i].value = Value{};  // free what the removed value owned
    }
    --p.used;
    --size_;
  }

  std::vector<Part> parts_ = std::vector<Part>(std::size_t{1} << kPartitionBits);
  std::size_t size_ = 0;
};

/// Pairs Send and Recv endpoints by msg_id as they are read, rank-major.  An
/// id holds at most one half-open entry: a duplicate endpoint of the same side
/// overwrites it (last wins), the pair is retired the moment its other side
/// arrives, and an endpoint for an already-retired id opens a fresh entry.
/// Whatever is still open at the end is half-matched (a tracing-window edge)
/// and dropped.  Well-formed traces have unique ids, so only malformed inputs
/// can tell this from a whole-trace join.  The half-open entries live in an
/// IdTable whose mark records the entry's side.
template <class Endpoint>
class MessageJoin {
 public:
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
  std::size_t outstanding() const { return open_.size(); }
  std::size_t peak_outstanding() const { return peak_; }

 private:
  enum : std::uint8_t { kSend = 1, kRecv = 2 };

  template <class OnPair>
  void add(std::int64_t id, std::uint8_t side, const Endpoint& ep, OnPair& on_pair) {
    typename IdTable<Endpoint>::Slot slot = open_.probe(id);
    if (!slot.found()) {
      slot.insert(ep, side);
      peak_ = std::max(peak_, open_.size());
      return;
    }
    if (slot.mark() == side) {
      slot.value() = ep;
      return;
    }
    const Endpoint other = slot.value();
    slot.erase();
    if (side == kSend) {
      on_pair(ep, other);
    } else {
      on_pair(other, ep);
    }
  }

  IdTable<Endpoint> open_;
  std::size_t peak_ = 0;
};

/// The (msg_id, side) pairs read so far: 2 bits per id, in 8 KiB pages of
/// 2^15 consecutive ids.  A consumer that joins messages out of rank-major
/// order pairs as MessageJoin does whenever no (msg_id, side) pair occurs
/// twice; this set proves that, or finds the repeat.  Its budget is one byte
/// per event of the trace, but at least one page: pages beyond it (ids too
/// sparse for pages) would cost more than the join they guard.
class SeenEndpoints {
 public:
  static constexpr int kPageBits = 15;
  static constexpr std::size_t kPageBytes = (std::size_t{1} << kPageBits) / 4;

  /// A set for a trace of `events` events.
  explicit SeenEndpoints(std::uint64_t events)
      : budget_(std::max<std::uint64_t>(events, kPageBytes)) {}

  /// Marks side `side` (0 send, 1 receive) of `id`; false if it was marked.
  bool mark(std::int64_t id, int side) {
    const std::int64_t key = id >> kPageBits;
    if (page_ == nullptr || key != key_) {
      std::unique_ptr<Page>& page = pages_[key];
      if (page == nullptr) page = std::make_unique<Page>();  // zeroed
      key_ = key;
      page_ = page.get();
    }
    const auto bit = 2 * static_cast<std::size_t>(id & ((std::int64_t{1} << kPageBits) - 1)) +
                     static_cast<std::size_t>(side);
    std::uint8_t& byte = (*page_)[bit / 8];
    const auto m = static_cast<std::uint8_t>(1u << (bit % 8));
    if ((byte & m) != 0) return false;
    byte = static_cast<std::uint8_t>(byte | m);
    return true;
  }

  /// Whether the pages outgrew the budget.
  bool over_budget() const { return pages_.size() * kPageBytes > budget_; }

 private:
  using Page = std::array<std::uint8_t, kPageBytes>;
  IdTable<std::unique_ptr<Page>> pages_;
  std::uint64_t budget_;
  std::int64_t key_ = 0;
  Page* page_ = nullptr;  ///< the page of key_; pages never move
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

/// Whether two participants of one instance agree on what it is: the same
/// kind and, for the rooted flavours, the same root.  Consumers take kind and
/// root from different participants (Trace::collect_collectives and the file
/// scan from the last in rank-major order, the windowed CLC from the last
/// read), so they derive the same edges only from an instance whose
/// participants all agree.
inline bool same_collective(CollectiveKind kind, Rank root, CollectiveKind other_kind,
                            Rank other_root) {
  return kind == other_kind && (flavor_of(kind) == CollectiveFlavor::NToN || root == other_root);
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

/// The N-to-N rule: the begins that constrain an end of rank `end_rank` are
/// those of another rank, in `begins` order.  Calls fn(begin) for each of
/// them from position `from` on, until fn returns false; returns the position
/// it stopped at (begins.size() when it ran through).  ReplaySchedule's
/// collective hubs are expanded, and resumed, with this.
template <class Begin, class RankOf, class Fn>
std::size_t for_each_other_rank(std::span<const Begin> begins, std::size_t from, Rank end_rank,
                                RankOf rank_of, Fn&& fn) {
  for (std::size_t k = from; k < begins.size(); ++k) {
    if (rank_of(begins[k]) != end_rank && !fn(begins[k])) return k;
  }
  return begins.size();
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
  for_each_other_rank(std::span<const Begin>(begins), 0, end_rank, rank_of, [&](const Begin& b) {
    fn(b);
    return true;
  });
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
