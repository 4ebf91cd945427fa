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
// and the incoming/outgoing constraint edges of all events live in two flat
// arrays sliced by offset tables.  This keeps the replay hot path free of
// per-event vector indirections and makes rank/index recovery O(1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/expect.hpp"
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

  ReplaySchedule(const Trace& trace, const std::vector<MessageRecord>& messages,
                 const std::vector<LogicalMessage>& logical);

  std::size_t events() const { return total_; }
  /// Total number of constraint edges (p2p + logical).
  std::size_t edges() const { return in_edges_.size(); }

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

  /// Incoming constraints of one event (empty for non-receives).
  std::span<const ConstraintEdge> incoming(std::uint32_t gidx) const {
    CS_REQUIRE(gidx < total_, "global index out of range");
    return {in_edges_.data() + in_off_[gidx], in_off_[gidx + 1] - in_off_[gidx]};
  }
  /// Events constrained by this one.
  std::span<const std::uint32_t> outgoing(std::uint32_t gidx) const {
    CS_REQUIRE(gidx < total_, "global index out of range");
    return {out_edges_.data() + out_off_[gidx], out_off_[gidx + 1] - out_off_[gidx]};
  }

  // Raw whole-array views for hot loops that index with already-validated
  // global indexes (the CLC driver's edge scan).  The per-event
  // accessors above re-check bounds on every call; a forward pass touching
  // millions of edges streams these flat arrays directly instead.
  /// Owning rank per global index (size events()).
  std::span<const Rank> ranks_of() const { return rank_of_; }
  /// Global index of each rank's event 0, plus a final total-events sentinel
  /// (size ranks + 1).
  std::span<const std::uint32_t> rank_offsets() const { return prefix_; }
  /// CSR offsets into incoming_edges() (size events() + 1).
  std::span<const std::uint32_t> incoming_offsets() const { return in_off_; }
  /// All incoming constraint edges, CSR order.
  std::span<const ConstraintEdge> incoming_edges() const { return in_edges_; }

  /// Visits every event in a dependency-respecting order.  Throws
  /// std::invalid_argument (see throw_cyclic_constraints) if the constraint
  /// graph has a cycle (a malformed trace).
  template <class Visit>
  void replay(Visit&& visit) const;

 private:
  const Trace* trace_;
  std::vector<std::uint32_t> prefix_;  ///< global index of each rank's event 0
  std::size_t total_ = 0;
  std::vector<Rank> rank_of_;          ///< owning rank per global index

  // CSR adjacency: edges of event g live at [off[g], off[g+1]).
  std::vector<std::uint32_t> in_off_;
  std::vector<ConstraintEdge> in_edges_;
  std::vector<std::uint32_t> out_off_;
  std::vector<std::uint32_t> out_edges_;
};

/// Reports a cyclic constraint graph — e.g. a receive recorded before its
/// own send on one rank, or two ranks that each receive the other's message
/// before sending their own — by throwing std::invalid_argument that names
/// `blocked`, the first event (lowest rank) that can never become ready.
[[noreturn]] void throw_cyclic_constraints(const EventRef& blocked);

template <class Visit>
void ReplaySchedule::replay(Visit&& visit) const {
  const int n = trace_->ranks();

  // Remaining unvisited constraint sources per event.
  std::vector<std::uint32_t> pending(total_);
  for (std::uint32_t g = 0; g < total_; ++g) {
    pending[g] = in_off_[g + 1] - in_off_[g];
  }

  std::vector<std::uint32_t> cursor(static_cast<std::size_t>(n), 0);
  std::vector<char> queued(static_cast<std::size_t>(n), 0);
  // FIFO of runnable ranks; a plain vector with a head index (total enqueues
  // are bounded by the edge count, so the tail never rewinds).
  std::vector<Rank> ready;
  ready.reserve(static_cast<std::size_t>(n));
  std::size_t head = 0;

  auto cursor_gidx = [&](Rank r) {
    return prefix_[static_cast<std::size_t>(r)] + cursor[static_cast<std::size_t>(r)];
  };
  auto enqueue_if_ready = [&](Rank r) {
    const auto c = cursor[static_cast<std::size_t>(r)];
    if (c >= rank_size(r)) return;
    if (pending[cursor_gidx(r)] != 0) return;
    if (queued[static_cast<std::size_t>(r)]) return;
    queued[static_cast<std::size_t>(r)] = 1;
    ready.push_back(r);
  };

  for (Rank r = 0; r < n; ++r) enqueue_if_ready(r);

  std::size_t visited = 0;
  while (head < ready.size()) {
    const Rank r = ready[head++];
    queued[static_cast<std::size_t>(r)] = 0;

    // Drain this process until its next event is blocked.
    while (cursor[static_cast<std::size_t>(r)] < rank_size(r) &&
           pending[cursor_gidx(r)] == 0) {
      const std::uint32_t g = cursor_gidx(r);
      const EventRef ref{r, cursor[static_cast<std::size_t>(r)]};
      visit(g, ref);
      ++visited;
      ++cursor[static_cast<std::size_t>(r)];
      for (std::uint32_t dep : outgoing(g)) {
        CS_ENSURE(pending[dep] > 0, "dependency counting corrupted");
        --pending[dep];
        if (pending[dep] == 0) {
          // The dependent becomes processable only once its process cursor
          // reaches it; check and enqueue the owning process.
          const Rank dr = rank_of_[dep];
          if (cursor_gidx(dr) == dep) enqueue_if_ready(dr);
        }
      }
    }
  }

  if (visited == total_) return;
  for (Rank r = 0; r < n; ++r) {
    if (cursor[static_cast<std::size_t>(r)] < rank_size(r)) {
      throw_cyclic_constraints({r, cursor[static_cast<std::size_t>(r)]});
    }
  }
}

}  // namespace chronosync
