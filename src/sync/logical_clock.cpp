#include "sync/logical_clock.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace chronosync {

std::vector<std::vector<std::uint64_t>> lamport_clocks(const Trace& trace,
                                                       const ReplaySchedule& schedule) {
  std::vector<std::uint64_t> by_gidx(schedule.events(), 0);
  std::vector<std::uint64_t> proc_last(static_cast<std::size_t>(trace.ranks()), 0);

  schedule.replay([&](std::uint32_t g, const EventRef& ref) {
    // LC = 1 + max(previous local event, all constraining sends).
    std::uint64_t lc = proc_last[static_cast<std::size_t>(ref.proc)];
    schedule.for_each_incoming(g, [&](const ReplaySchedule::ConstraintEdge& edge) {
      lc = std::max(lc, by_gidx[edge.source]);
    });
    by_gidx[g] = lc + 1;
    proc_last[static_cast<std::size_t>(ref.proc)] = lc + 1;
  });

  std::vector<std::vector<std::uint64_t>> out(static_cast<std::size_t>(trace.ranks()));
  for (Rank r = 0; r < trace.ranks(); ++r) {
    auto& v = out[static_cast<std::size_t>(r)];
    v.resize(trace.events(r).size());
    for (std::uint32_t i = 0; i < v.size(); ++i) {
      v[i] = by_gidx[schedule.global_index({r, i})];
    }
  }
  return out;
}

VectorClockIndex::VectorClockIndex(const Trace& trace, const ReplaySchedule& schedule)
    : schedule_(&schedule), ranks_(trace.ranks()) {
  clocks_.assign(schedule.events(),
                 std::vector<std::uint64_t>(static_cast<std::size_t>(ranks_), 0));
  std::vector<std::uint32_t> proc_prev(static_cast<std::size_t>(ranks_), UINT32_MAX);

  schedule.replay([&](std::uint32_t g, const EventRef& ref) {
    auto& vc = clocks_[g];
    const auto p = static_cast<std::size_t>(ref.proc);
    if (proc_prev[p] != UINT32_MAX) vc = clocks_[proc_prev[p]];
    schedule.for_each_incoming(g, [&](const ReplaySchedule::ConstraintEdge& edge) {
      const auto& src = clocks_[edge.source];
      for (std::size_t i = 0; i < src.size(); ++i) vc[i] = std::max(vc[i], src[i]);
    });
    ++vc[p];  // local step
    proc_prev[p] = g;
  });
}

const std::vector<std::uint64_t>& VectorClockIndex::clock(const EventRef& ref) const {
  return clocks_[schedule_->global_index(ref)];
}

bool VectorClockIndex::happened_before(const EventRef& a, const EventRef& b) const {
  const auto& va = clock(a);
  const auto& vb = clock(b);
  bool some_less = false;
  for (std::size_t i = 0; i < va.size(); ++i) {
    if (va[i] > vb[i]) return false;
    if (va[i] < vb[i]) some_less = true;
  }
  return some_less;
}

bool VectorClockIndex::concurrent(const EventRef& a, const EventRef& b) const {
  return !happened_before(a, b) && !happened_before(b, a);
}

}  // namespace chronosync
