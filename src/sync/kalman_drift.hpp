// Model-based Kalman drift estimation (Freris/Borkar/Kumar style).
//
// Eq. 3 linear interpolation removes only the *mean* drift over the
// measurement interval; the paper's central result is that real drift is not
// constant, so the residual still violates the clock condition.  When drift
// is a random walk — which clockmodel simulates and the scenario matrix
// exercises — the statistically right estimator is a per-rank Kalman filter
// over the offset measurements with state
//
//     x = [ offset o (master - worker, s), drift rate d (dimensionless) ]
//
// random-walk process model between measurements Δ apart
//
//     o' = o + d Δ          Q = [ q_o Δ + q_d Δ³/3   q_d Δ²/2 ]
//     d' = d                    [ q_d Δ²/2           q_d Δ    ]
//
// and measurement z = o with noise derived from the probe's round-trip
// uncertainty (Cristian's error bound, Eq. 2): the further a sample's RTT
// sits above the rank's best RTT, the less it is trusted.
//
// Because correction is a *postmortem* problem, the forward pass is followed
// by a Rauch-Tung-Striebel smoothing pass, so every estimate conditions on
// the whole measurement record, not just the past.  The resulting correction
//
//     m(t) = t + ô(t)
//
// interpolates the smoothed offsets linearly between measurement instants and
// extrapolates outside the measured range with the smoothed *drift rate* at
// the boundary (the model-based generalization of Eq. 3's mean-drift slope).
//
// Degenerate stores degrade instead of crashing, mirroring the other
// from_store paths: non-finite samples are skipped with a warning, a rank
// with a single usable sample falls back to pure offset alignment, and a
// rank with none falls back to identity.
//
// The whole construction is deterministic: same store ->
// bit-identical filter states and corrections (no RNG, fixed iteration
// order), which the determinism regression test pins down.
#pragma once

#include <cstddef>
#include <vector>

#include "measure/offset_probe.hpp"
#include "sync/correction.hpp"

namespace chronosync {

class KalmanDriftCorrection final : public TimestampCorrection {
 public:
  /// Smoothed filter state at one measurement instant of one rank.
  struct State {
    Time worker_time = 0.0;
    Duration offset = 0.0;    ///< smoothed master-minus-worker offset
    double drift = 0.0;       ///< smoothed drift rate (dimensionless)
    double var_offset = 0.0;  ///< posterior variance of `offset`
    double var_drift = 0.0;   ///< posterior variance of `drift`
  };

  /// Runs the filter + RTS smoother over every rank of the store.  Skips
  /// non-finite and time-reversed samples with a warning; never throws on
  /// degenerate stores (see header comment).
  static KalmanDriftCorrection from_store(const OffsetStore& store);

  Time correct(Rank r, Time local_ts) const override;

  /// Smoothed states of one rank, in measurement order (diagnostics/tests).
  const std::vector<State>& states(Rank r) const;

 private:
  struct RankModel {
    std::vector<State> states;  ///< strictly increasing worker_time
    double entry_slope = 1.0;   ///< d master / d worker before the first state
    double exit_slope = 1.0;    ///< ... after the last state
  };

  explicit KalmanDriftCorrection(std::vector<RankModel> models);

  std::vector<RankModel> models_;
};

}  // namespace chronosync
