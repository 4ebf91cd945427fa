// The CLC arithmetic, written once.
//
// Every expression of the Controlled Logical Clock (clc.hpp) lives here: the
// forward step (carry decay, local-order clamp, Eq. 1 bound, jump), the send
// cap of the backward pass with its floating-point margin, and the backward
// ramp shift.  The in-memory driver (clc.cpp), the replay-order oracle
// (verify/clc_oracle.hpp), the windowed streaming engine (clc_stream.cpp) and
// node coupling (node_coupling.cpp) all call these functions, so they agree
// bit for bit by construction.  The floating-point order of each expression is
// part of that contract: never reassociate one.
#pragma once

#include <algorithm>
#include <vector>

#include "common/expect.hpp"
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

/// A finished forward pass, indexed by global event index.
struct ForwardPass {
  std::vector<Time> lc;
  std::vector<Duration> jump;  ///< 0 where the event kept its candidate
};

/// Everything after the forward pass: jump statistics (in global-index order,
/// so they are independent of the visit order), backward amortization, and
/// the per-rank result.  Shared by the driver and the replay-order oracle so
/// the two differ only in the order they visit events.  Defined in clc.cpp.
ClcResult finish(const Trace& trace, const ReplaySchedule& schedule, const TimestampArray& input,
                 ForwardPass fwd, const ClcOptions& options);

}  // namespace chronosync::clc_kernel
