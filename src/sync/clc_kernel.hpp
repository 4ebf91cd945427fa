// The CLC arithmetic, written once.
//
// Every expression of the Controlled Logical Clock (clc.hpp) lives here: the
// forward step (carry decay, local-order clamp, Eq. 1 bound, jump), the send
// cap of the backward pass with its floating-point margin, the jump tally
// (violations_repaired, max_jump, total_jump's fold and the ramp_clamped
// test), the per-rank backward sweep (ramp window, ramp shift, cap, successor
// and forward clamps), and the backward pass and result assembly (`finish`)
// that the driver and the replay-order oracle share.  The in-memory driver
// (clc.cpp), the replay-order oracle (verify/clc_oracle.hpp), the windowed
// streaming engine (clc_stream.cpp) and node coupling (node_coupling.cpp) all
// call these, so they agree bit for bit by construction: the windowed engine
// runs the same BackwardSweep and JumpTally as `finish`, with its ramps
// clamped to a finite window.  The floating-point order of each expression is
// part of that contract: never reassociate one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <numeric>
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

/// total_jump's floating-point fold, shared by the driver, the replay-order
/// oracle and the streaming engine: each rank's jumps summed in event order,
/// then the rank sums in rank order, so ranks may be fed interleaved.
class JumpTotal {
 public:
  void add(Rank r, Duration jump) {
    const auto i = static_cast<std::size_t>(r);
    if (i >= sums_.size()) sums_.resize(i + 1, 0.0);
    sums_[i] += jump;
  }
  Duration total() const { return std::accumulate(sums_.begin(), sums_.end(), 0.0); }

 private:
  std::vector<Duration> sums_;  ///< by rank
};

/// The jump statistics of a CLC run, which the driver, the replay-order
/// oracle and the windowed engine all count through: violations_repaired,
/// max_jump, total_jump's fold, and ramp_clamped, the jumps whose ramp a
/// BackwardSweep with the same options and max_window clamps.
struct JumpTally {
  /// Counts a jump (> 0) of rank r.
  void add(Rank r, Duration jump) {
    ++violations_repaired;
    max_jump = std::max(max_jump, jump);
    total.add(r, jump);
    if (options.backward_amortization && jump / options.backward_slope > max_window) {
      ++ramp_clamped;
    }
  }

  ClcOptions options;
  Duration max_window = kTimeInfinity;
  std::size_t violations_repaired = 0;
  Duration max_jump = 0.0;
  JumpTotal total{};
  std::uint64_t ramp_clamped = 0;
};

/// Backward amortization of one rank, fed its events newest first.  A jump
/// opens a ramp of window min(jump / backward_slope, max_window) over the
/// events before it and keeps its own forward value; an event inside the
/// ramp is pulled forward by ramp_shift, capped by its send cap, clamped to
/// its successor's amortized value and never moved backward.
class BackwardSweep {
 public:
  /// One swept event.
  struct Swept {
    Time value = 0.0;      ///< amortized timestamp
    bool in_ramp = false;  ///< inside a ramp; otherwise value is the forward value
    Time candidate = 0.0;  ///< in a ramp: the capped value before the successor clamp
  };

  BackwardSweep(const ClcOptions& options, Duration max_window)
      : slope_(options.backward_slope), max_window_(max_window) {}

  /// Sweeps the next older event: its forward value `lc`, its jump (0 for
  /// none), and `cap()`, its send cap, called only inside a ramp.
  template <class CapOf>
  Swept step(Time lc, Duration jump, CapOf&& cap) {
    Swept s;
    s.value = lc;
    if (jump > 0.0) {
      // The events before it are smoothed toward it.
      have_jump_ = true;
      jump_at_ = lc;
      jump_size_ = jump;
      window_ = std::min(jump / slope_, max_window_);
    } else if (have_jump_) {
      const Duration dist = jump_at_ - lc;
      if (dist >= 0.0 && dist < window_) {
        s.in_ramp = true;
        // Never break a send's condition, keep local order, only move forward.
        s.candidate = std::min(lc + ramp_shift(jump_size_, dist, window_), cap());
        s.value = std::max(std::min(s.candidate, successor_), lc);
      } else if (dist >= window_) {
        have_jump_ = false;  // out of the amortization window
      }
    }
    successor_ = std::min(successor_, s.value);
    return s;
  }

 private:
  double slope_;
  Duration max_window_;
  bool have_jump_ = false;
  Time jump_at_ = 0.0;  ///< forward value of the nearest newer jump
  Duration jump_size_ = 0.0;
  Duration window_ = 0.0;
  Time successor_ = kTimeInfinity;  ///< least amortized value of the newer events
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
  // jump, with unclamped ramps.
  for (Rank r = 0; r < trace.ranks(); ++r) {
    const auto n = static_cast<std::uint32_t>(trace.events(r).size());
    if (n == 0) continue;
    std::vector<Time>& row = out.of_rank(r);

    // This rank's jumps, walked backwards with the events.  Checking the
    // rank's last event checks every global index below.
    const std::uint32_t first = schedule.global_index({r, n - 1}) - (n - 1);
    const auto by_index = [](const auto& j, std::uint32_t g) { return j.first < g; };
    const auto rank_jumps =
        std::lower_bound(fwd.jumps.begin(), fwd.jumps.end(), first, by_index);
    auto next_jump = std::lower_bound(rank_jumps, fwd.jumps.end(), first + n, by_index);

    BackwardSweep sweep(options, kTimeInfinity);
    for (std::uint32_t i = n; i-- > 0;) {
      const std::uint32_t g = first + i;
      Duration jump = 0.0;
      if (next_jump != rank_jumps && std::prev(next_jump)->first == g) {
        --next_jump;
        jump = next_jump->second;
      }
      // `row` already holds the forward values; only a ramp moves one.
      const BackwardSweep::Swept s = sweep.step(fwd.lc[g], jump, [&] { return cap_of(g); });
      if (s.in_ramp) row[i] = s.value;
    }
  }
}

/// Everything after the forward pass: jump statistics (in global-index order
/// through JumpTally, so they are independent of the visit order; `fwd.jumps`
/// is sorted here), the per-rank result, and backward amortization on it.
/// Shared by the driver and the replay-order oracle so the two differ only in
/// the order they visit events.
template <class Schedule>
ClcResult finish(const Trace& trace, const Schedule& schedule, ForwardPass fwd,
                 const ClcOptions& options) {
  ClcResult result;
  std::sort(fwd.jumps.begin(), fwd.jumps.end());
  JumpTally tally{options};
  for (const auto& [g, j] : fwd.jumps) tally.add(schedule.rank_of(g), j);
  result.violations_repaired = tally.violations_repaired;
  result.max_jump = tally.max_jump;
  result.total_jump = tally.total.total();
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
