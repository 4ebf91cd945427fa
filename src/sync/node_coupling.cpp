#include "sync/node_coupling.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "common/expect.hpp"
#include "sync/clc_kernel.hpp"

namespace chronosync {

namespace {

/// A rank's correction profile: (input timestamp, applied correction) knots,
/// evaluated with linear interpolation and flat extrapolation.
class CorrectionProfile {
 public:
  void add(Time t, Duration corr) {
    if (!knots_.empty() && t <= knots_.back().first) {
      // Equal/backward input timestamps: keep the larger correction.
      knots_.back().second = std::max(knots_.back().second, corr);
      return;
    }
    knots_.push_back({t, corr});
  }

  Duration at(Time t) const {
    if (knots_.empty()) return 0.0;
    if (t <= knots_.front().first) return knots_.front().second;
    if (t >= knots_.back().first) return knots_.back().second;
    auto it = std::lower_bound(
        knots_.begin(), knots_.end(), t,
        [](const std::pair<Time, Duration>& k, Time v) { return k.first < v; });
    const auto& hi = *it;
    const auto& lo = *(it - 1);
    const double f = (t - lo.first) / (hi.first - lo.first);
    return lo.second + f * (hi.second - lo.second);
  }

  bool empty() const { return knots_.empty(); }

 private:
  std::vector<std::pair<Time, Duration>> knots_;
};

}  // namespace

NodeCoupledClcResult node_coupled_clc(const Trace& trace, const ReplaySchedule& schedule,
                                      const TimestampArray& input, const ClcOptions& options) {
  NodeCoupledClcResult result;
  result.clc = controlled_logical_clock(trace, schedule, input, options);

  // Group ranks by node.
  std::map<int, std::vector<Rank>> nodes;
  for (Rank r = 0; r < trace.ranks(); ++r) {
    nodes[trace.placement().location(r).node].push_back(r);
  }

  // Correction profiles per rank from the CLC result.
  std::vector<CorrectionProfile> profiles(static_cast<std::size_t>(trace.ranks()));
  for (Rank r = 0; r < trace.ranks(); ++r) {
    const auto& in = input.of_rank(r);
    const auto& out = result.clc.corrected.of_rank(r);
    for (std::size_t i = 0; i < in.size(); ++i) {
      profiles[static_cast<std::size_t>(r)].add(in[i], out[i] - in[i]);
    }
  }

  // Send caps against the *final* CLC receive timestamps (only ever loosened
  // by coupling, since receives move forward too).
  std::vector<std::vector<Time>> cap(static_cast<std::size_t>(trace.ranks()));
  for (Rank r = 0; r < trace.ranks(); ++r) {
    cap[static_cast<std::size_t>(r)].assign(schedule.rank_size(r), kTimeInfinity);
  }
  schedule.for_each_timed_edge(result.clc.corrected, [&](const EventRef&, Time recv,
                                                         const EventRef& send, Time, Duration l_min,
                                                         bool) {
    Time& c = cap[static_cast<std::size_t>(send.proc)][send.index];
    c = std::min(c, clc_kernel::send_cap(recv, l_min));
  });

  for (const auto& [node, ranks] : nodes) {
    if (ranks.size() < 2) continue;  // nothing to couple
    for (Rank r : ranks) {
      auto& out = result.clc.corrected.of_rank(r);
      const auto& in = input.of_rank(r);
      if (in.empty()) continue;

      // Desired correction: envelope over the node's profiles.
      Time successor = kTimeInfinity;
      for (std::uint32_t i = static_cast<std::uint32_t>(in.size()); i-- > 0;) {
        Duration want = out[i] - in[i];
        for (Rank q : ranks) {
          if (q == r) continue;
          want = std::max(want, profiles[static_cast<std::size_t>(q)].at(in[i]));
        }
        Time moved = in[i] + want;
        moved = std::min(moved, cap[static_cast<std::size_t>(r)][i]);
        moved = std::min(moved, successor);  // keep local order
        if (moved > out[i] + 1e-15) {
          result.max_coupled_shift = std::max(result.max_coupled_shift, moved - out[i]);
          out[i] = moved;
          ++result.coupled_moves;
        }
        successor = std::min(successor, out[i]);
      }
    }
  }
  return result;
}

}  // namespace chronosync
