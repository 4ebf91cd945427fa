// The every-edge schedule: the oracle of ReplaySchedule's hub encoding.
//
// ReplaySchedule stores an N-to-N collective instance once, as a private hub,
// and expands its edges on demand in its walkers (scan_incoming,
// for_each_outgoing, for_each_timed_edge).  CsrSchedule is the build it
// replaced: one explicit CSR record per p2p and per logical message, p2p
// first, then the logical ones in list order, with no hubs.  Its two
// callbacks visit what ReplaySchedule's walkers must expand to, edge for edge
// (source or target, and l_min), resumed scans included
// (testutil::expect_same_edges); and the replay-order CLC (clc_oracle.hpp)
// and replay_in_dependency_order run over it, so the driver's hub walk is
// checked against a forward pass that never saw a hub.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sync/replay.hpp"

namespace chronosync::verify {

class CsrSchedule {
 public:
  using ConstraintEdge = ReplaySchedule::ConstraintEdge;

  CsrSchedule(const Trace& trace, const std::vector<MessageRecord>& messages,
              const std::vector<LogicalMessage>& logical);

  std::size_t events() const { return rank_of_.size(); }
  std::size_t edges() const { return in_edges_.size(); }
  int ranks() const { return static_cast<int>(prefix_.size()) - 1; }

  std::uint32_t global_index(const EventRef& ref) const;
  Rank rank_of(std::uint32_t g) const { return rank_of_.at(g); }
  std::uint32_t rank_begin(Rank r) const { return prefix_.at(static_cast<std::size_t>(r)); }
  std::uint32_t rank_size(Rank r) const {
    return prefix_.at(static_cast<std::size_t>(r) + 1) - prefix_.at(static_cast<std::size_t>(r));
  }

  std::span<const ConstraintEdge> incoming(std::uint32_t g) const {
    return std::span<const ConstraintEdge>(in_edges_).subspan(in_off_.at(g),
                                                              in_off_.at(g + 1) - in_off_[g]);
  }
  /// Calls fn(edge) for every incoming edge of g.
  template <class Fn>
  void for_each_incoming(std::uint32_t g, Fn&& fn) const {
    for (const ConstraintEdge& e : incoming(g)) fn(e);
  }
  /// Calls fn(target, l_min) for every outgoing edge of g.
  template <class Fn>
  void for_each_outgoing(std::uint32_t g, Fn&& fn) const {
    for (std::uint32_t k = out_off_.at(g); k < out_off_.at(g + 1); ++k) fn(out_edges_[k], out_l_min_[k]);
  }

  template <class Visit>
  void replay(Visit&& visit) const {
    replay_in_dependency_order(*this, ranks(), visit);
  }

 private:
  std::vector<std::uint32_t> prefix_;
  std::vector<Rank> rank_of_;
  std::vector<std::uint32_t> in_off_;
  std::vector<ConstraintEdge> in_edges_;
  std::vector<std::uint32_t> out_off_;
  std::vector<std::uint32_t> out_edges_;
  std::vector<Duration> out_l_min_;  ///< l_min of each outgoing edge
};

}  // namespace chronosync::verify
