// The CLC arithmetic, written once.
//
// Every expression of the Controlled Logical Clock (clc.hpp) lives here: the
// forward step (carry decay, local-order clamp, Eq. 1 bound, jump), the send
// cap of the backward pass with its floating-point margin, the backward ramp
// shift, and the backward pass and result assembly (`finish`) that the driver
// and the replay-order oracle share.  The in-memory driver (clc.cpp), the
// replay-order oracle (verify/clc_oracle.hpp), the windowed streaming engine
// (clc_stream.cpp) and node coupling (node_coupling.cpp) all call these
// functions, so they agree bit for bit by construction.  The floating-point
// order of each expression is part of that contract: never reassociate one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "obs/obs.hpp"
#include "sync/clc.hpp"
#include "sync/replay.hpp"
#include "trace/trace.hpp"

namespace chronosync::clc_kernel {

/// Margin below a send's cap: keeps rounded re-checks of Eq. 1 strictly safe.
inline constexpr Duration kFpMargin = 1e-12;

/// Rejects option values the CLC is undefined for (std::invalid_argument).
inline void require_valid(const ClcOptions& options) {
  CS_REQUIRE(options.forward_decay >= 0.0 && options.forward_decay < 1.0,
             "forward_decay must be in [0, 1)");
  CS_REQUIRE(!options.backward_amortization || options.backward_slope > 0.0,
             "backward_slope must be positive");
}

/// Forward-pass state of one rank: its previous event's input and output.
struct RankClock {
  bool has_prev = false;
  Time prev_input = 0.0;
  Time prev_lc = 0.0;
};

/// Folds one constraining send (corrected timestamp `send_lc`) into the
/// clock-condition bound of its receive: the receive must reach send + l_min.
/// Start from -kTimeInfinity.
inline Time eq1_bound(Time bound, Time send_lc, Duration l_min) {
  return std::max(bound, send_lc + l_min);
}

struct Step {
  Time lc = 0.0;       ///< corrected timestamp
  Duration jump = 0.0;  ///< > 0 when the clock condition forced the event forward
};

/// One event's forward step: input timestamp `t`, Eq. 1 bound `bound`
/// (-kTimeInfinity without incoming edges).  Advances the rank's clock.
inline Step forward_step(RankClock& clock, Time t, Time bound, double forward_decay) {
  // Forward amortization: carry the previous correction forward, decayed by
  // forward_decay per unit of elapsed local time, and never below zero (the
  // CLC only moves events forward).
  Time cand = t;
  if (clock.has_prev) {
    const Duration dt = std::max(0.0, t - clock.prev_input);
    const Duration carried =
        std::max(0.0, (clock.prev_lc - clock.prev_input) - forward_decay * dt);
    cand = std::max(t + carried, clock.prev_lc);  // local order is inviolable
  }
  Step step{cand, 0.0};
  if (bound > cand) {
    step.lc = bound;
    step.jump = bound - cand;
  }
  clock.prev_input = t;
  clock.prev_lc = step.lc;
  clock.has_prev = true;
  return step;
}

/// Upper cap of a send whose receive sits at `recv_lc`: raising the send past
/// it would introduce a fresh violation.
inline Time send_cap(Time recv_lc, Duration l_min) { return recv_lc - l_min - kFpMargin; }

/// Backward-ramp shift of an event `dist` before a jump of size `jump` whose
/// amortization window is `window` (requires 0 <= dist < window).
inline Duration ramp_shift(Duration jump, Duration dist, Duration window) {
  return jump * (1.0 - dist / window);
}

/// A finished forward pass.
struct ForwardPass {
  std::vector<Time> lc;  ///< by global event index
  /// (global index, jump) of every event the clock condition forced forward
  /// (Step::jump > 0), in any order; few events jump, so they are not an
  /// array over all events.
  std::vector<std::pair<std::uint32_t, Duration>> jumps;

  /// Stores one event's forward step.
  void record(std::uint32_t g, const Step& step) {
    lc[g] = step.lc;
    if (step.jump > 0.0) jumps.emplace_back(g, step.jump);
  }
};

/// Backward amortization over a finished forward pass: the events before
/// each jump are pulled forward along a ramp, capped so no send overtakes
/// its receive.  Reads `fwd` and moves events in `out`, its per-rank copy.
/// `schedule` is a ReplaySchedule or verify::CsrSchedule (any type with
/// global_index() and for_each_outgoing()).
template <class Schedule>
void backward_pass(const Trace& trace, const Schedule& schedule, const ForwardPass& fwd,
                   TimestampArray& out, const ClcOptions& options) {
  CS_SPAN("clc.backward_pass");

  // Upper cap of a send: it may be raised at most to each of its receives'
  // forward-pass timestamp minus l_min, or it would introduce a fresh
  // violation.  Only an event inside a ramp needs its cap, so it is folded
  // on demand over the event's outgoing edges.  Any edge order gives the
  // same bits: std::min(cap, x) keeps cap for a NaN x, and send_cap never
  // yields -0 (x - kFpMargin is -0 for no x), so no signed-zero tie can go
  // either way.
  const auto cap_of = [&](std::uint32_t g) {
    Time cap = kTimeInfinity;
    schedule.for_each_outgoing(g, [&](std::uint32_t target, Duration l_min) {
      cap = std::min(cap, send_cap(fwd.lc[target], l_min));
    });
    return cap;
  };

  // Per process, sweep backwards applying the ramp of the nearest following
  // jump; monotonicity is maintained by clamping against the successor.
  for (Rank r = 0; r < trace.ranks(); ++r) {
    const auto n = static_cast<std::uint32_t>(trace.events(r).size());
    if (n == 0) continue;
    std::vector<Time>& row = out.of_rank(r);

    bool have_jump = false;
    Time jump_at = 0.0;      // corrected timestamp of the jump event
    Duration jump_size = 0.0;
    Duration window = 0.0;
    // This rank's jumps, walked backwards with the events.  Checking the
    // rank's last event checks every global index below.
    const std::uint32_t first = schedule.global_index({r, n - 1}) - (n - 1);
    const auto by_index = [](const auto& j, std::uint32_t g) { return j.first < g; };
    const auto rank_jumps =
        std::lower_bound(fwd.jumps.begin(), fwd.jumps.end(), first, by_index);
    auto next_jump = std::lower_bound(rank_jumps, fwd.jumps.end(), first + n, by_index);

    Time successor = kTimeInfinity;
    for (std::uint32_t i = n; i-- > 0;) {
      const std::uint32_t g = first + i;
      const Time lc = fwd.lc[g];

      if (next_jump != rank_jumps && std::prev(next_jump)->first == g) {
        // This event is itself a jump: events before it are smoothed toward
        // it.  (The jump event keeps its forward-pass value.)
        --next_jump;
        have_jump = true;
        jump_at = lc;
        jump_size = next_jump->second;
        window = jump_size / options.backward_slope;
        successor = std::min(successor, lc);
        continue;
      }

      if (have_jump) {
        const Duration dist = jump_at - lc;
        if (dist >= 0.0 && dist < window) {
          Time moved = lc + ramp_shift(jump_size, dist, window);
          moved = std::min(moved, cap_of(g));   // never break a send's condition
          moved = std::min(moved, successor);   // keep local order
          row[i] = std::max(moved, lc);         // only ever move forward
        } else if (dist >= window) {
          have_jump = false;  // out of the amortization window
        }
      }
      successor = std::min(successor, row[i]);
    }
  }
}

/// Everything after the forward pass: jump statistics (in global-index order,
/// so they are independent of the visit order; `fwd.jumps` is sorted here),
/// the per-rank result, and backward amortization on it.  Shared by the
/// driver and the replay-order oracle so the two differ only in the order
/// they visit events.
template <class Schedule>
ClcResult finish(const Trace& trace, const Schedule& schedule, ForwardPass fwd,
                 const ClcOptions& options) {
  ClcResult result;
  std::sort(fwd.jumps.begin(), fwd.jumps.end());
  for (const auto& [g, j] : fwd.jumps) {
    ++result.violations_repaired;
    result.max_jump = std::max(result.max_jump, j);
    result.total_jump += j;
  }
  result.corrected = TimestampArray(trace.ranks());
  for (Rank r = 0; r < trace.ranks(); ++r) {
    const auto first = fwd.lc.begin() + schedule.rank_begin(r);
    result.corrected.of_rank(r).assign(first, first + schedule.rank_size(r));
  }
  if (options.backward_amortization) {
    backward_pass(trace, schedule, fwd, result.corrected, options);
  }
  return result;
}

}  // namespace chronosync::clc_kernel
