#include "sync/kalman_drift.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"
#include "common/log.hpp"

namespace chronosync {

namespace {

/// Drift-rate random-walk intensity: rate change per sqrt-second.  q_d in the
/// process model is this squared.  The value brackets the simulated wander
/// presets (intel-tsc ~1.1e-9/sqrt(s), the random-walk-wander scenario
/// ~1.6e-8/sqrt(s)).
constexpr double kDriftProcessSigma = 1e-8;
/// White offset jitter per sqrt-second (read noise, OS noise): q_o.
constexpr double kOffsetProcessSigma = 1e-8;
/// Prior standard deviations at the first measurement.  Offsets between
/// unsynchronized nodes reach seconds (counters start at reset); drift priors
/// span the hardware range (100 ppm).
constexpr double kInitOffsetSigma = 1.0;
constexpr double kInitDriftSigma = 1e-4;
/// Measurement noise: sigma = max(floor, rtt_excess_scale * (rtt - best rtt
/// of the rank)).  Min-RTT probe batches land near the floor; stray high-RTT
/// samples are de-weighted by their asymmetry bound.
constexpr Duration kMeasurementSigmaFloor = 0.5e-6;
constexpr double kRttExcessScale = 0.5;

/// Symmetric 2x2 covariance; the state is small enough that spelling the
/// algebra out beats a matrix library and keeps every operation deterministic.
struct Cov {
  double oo = 0.0;  // var(offset)
  double od = 0.0;  // cov(offset, drift)
  double dd = 0.0;  // var(drift)
};

struct Vec {
  double o = 0.0;
  double d = 0.0;
};

struct Step {
  Time worker_time = 0.0;
  Duration dt = 0.0;  ///< gap to the previous step (0 for the first)
  Vec pred_x;         ///< x_{k|k-1}
  Cov pred_p;         ///< P_{k|k-1}
  Vec filt_x;         ///< x_{k|k}
  Cov filt_p;         ///< P_{k|k}
};

/// Predict across dt: x -> F x, P -> F P F^T + Q with F = [[1, dt], [0, 1]].
void predict(Vec& x, Cov& p, Duration dt) {
  if (dt <= 0.0) return;
  x.o += x.d * dt;
  const double q_d = kDriftProcessSigma * kDriftProcessSigma;
  const double q_o = kOffsetProcessSigma * kOffsetProcessSigma;
  const double oo = p.oo + 2.0 * dt * p.od + dt * dt * p.dd;
  const double od = p.od + dt * p.dd;
  p.oo = oo + q_o * dt + q_d * dt * dt * dt / 3.0;
  p.od = od + q_d * dt * dt / 2.0;
  p.dd = p.dd + q_d * dt;
}

/// Measurement update with z = offset, H = [1 0], noise variance r2.
void update(Vec& x, Cov& p, Duration z, double r2) {
  const double s = p.oo + r2;           // innovation variance (> 0: r2 > 0)
  const double k_o = p.oo / s;          // Kalman gain
  const double k_d = p.od / s;
  const double innov = z - x.o;
  x.o += k_o * innov;
  x.d += k_d * innov;
  // Joseph-free standard form is fine at this scale; keep symmetry explicit.
  const double oo = (1.0 - k_o) * p.oo;
  const double od = (1.0 - k_o) * p.od;
  const double dd = p.dd - k_d * p.od;
  p.oo = oo;
  p.od = od;
  p.dd = dd;
}

/// Clamp a smoothed drift rate to a physically plausible slope: hardware and
/// even stormed clocks stay within a few percent of true rate, and the
/// boundary extrapolation must keep d master / d worker positive so the
/// correction preserves rank-local event order.
double boundary_slope(double drift) { return 1.0 + std::clamp(drift, -0.01, 0.01); }

}  // namespace

KalmanDriftCorrection::KalmanDriftCorrection(std::vector<RankModel> models)
    : models_(std::move(models)) {
  CS_REQUIRE(!models_.empty(), "kalman drift correction needs at least one rank");
}

KalmanDriftCorrection KalmanDriftCorrection::from_store(const OffsetStore& store) {
  std::vector<RankModel> models(static_cast<std::size_t>(store.ranks()));
  for (Rank r = 0; r < store.ranks(); ++r) {
    const auto& samples = store.of(r);
    RankModel& model = models[static_cast<std::size_t>(r)];

    // Screen the record once: non-finite samples (a hostile or truncated
    // store) and time-reversed samples are unusable; the best finite RTT
    // anchors the per-sample measurement noise.
    std::size_t skipped = 0;
    Duration best_rtt = kTimeInfinity;
    for (const auto& m : samples) {
      if (is_finite_sample(m)) best_rtt = std::min(best_rtt, m.rtt);
    }

    std::vector<Step> steps;
    steps.reserve(samples.size());
    Vec x;
    Cov p;
    bool started = false;
    for (const auto& m : samples) {
      if (!is_finite_sample(m)) {
        ++skipped;
        continue;
      }
      if (started && m.worker_time < steps.back().worker_time) {
        ++skipped;  // time-reversed sample: the model cannot rewind
        continue;
      }
      const Duration excess = std::max(0.0, m.rtt - best_rtt);
      const double sigma = std::max(kMeasurementSigmaFloor, kRttExcessScale * excess);
      const double r2 = sigma * sigma;
      if (!started) {
        x = {m.offset, 0.0};
        p = {kInitOffsetSigma * kInitOffsetSigma, 0.0, kInitDriftSigma * kInitDriftSigma};
        Step s;
        s.worker_time = m.worker_time;
        s.dt = 0.0;
        s.pred_x = x;
        s.pred_p = p;
        update(x, p, m.offset, r2);
        s.filt_x = x;
        s.filt_p = p;
        steps.push_back(s);
        started = true;
        continue;
      }
      const Duration dt = m.worker_time - steps.back().worker_time;
      if (dt == 0.0) {
        // Batched probes sharing one instant: a second measurement of the
        // same state.  Update in place instead of growing a zero-length
        // segment (knots must stay strictly increasing).
        Step& s = steps.back();
        update(x, p, m.offset, r2);
        s.filt_x = x;
        s.filt_p = p;
        continue;
      }
      predict(x, p, dt);
      Step s;
      s.worker_time = m.worker_time;
      s.dt = dt;
      s.pred_x = x;
      s.pred_p = p;
      update(x, p, m.offset, r2);
      s.filt_x = x;
      s.filt_p = p;
      steps.push_back(s);
    }
    if (skipped > 0) {
      CS_LOG_WARN << "KalmanDriftCorrection: rank " << r << " skipped " << skipped
                  << " non-finite or time-reversed offset sample(s)";
    }

    if (steps.empty()) {
      CS_LOG_WARN << "KalmanDriftCorrection: rank " << r
                  << " has no usable offset samples; falling back to identity";
      model.states.push_back({0.0, 0.0, 0.0, 0.0, 0.0});
      continue;
    }

    // RTS smoothing pass: condition every state on the full record.
    std::vector<Vec> sx(steps.size());
    std::vector<Cov> sp(steps.size());
    sx.back() = steps.back().filt_x;
    sp.back() = steps.back().filt_p;
    for (std::size_t k = steps.size() - 1; k-- > 0;) {
      const Step& cur = steps[k];
      const Step& next = steps[k + 1];
      // C = P_filt F^T P_pred^{-1} with F = [[1, dt], [0, 1]].
      const double dt = next.dt;
      // P_filt F^T.
      const double a_oo = cur.filt_p.oo + dt * cur.filt_p.od;
      const double a_od = cur.filt_p.od;
      const double a_do = cur.filt_p.od + dt * cur.filt_p.dd;
      const double a_dd = cur.filt_p.dd;
      // Inverse of the (symmetric, PD) predicted covariance.
      const Cov& pp = next.pred_p;
      const double det = pp.oo * pp.dd - pp.od * pp.od;
      if (!(det > 0.0) || !std::isfinite(det)) {
        // Numerically degenerate (e.g. all probes at one instant): keep the
        // filtered estimate for this and earlier states.
        for (std::size_t j = 0; j <= k; ++j) {
          sx[j] = steps[j].filt_x;
          sp[j] = steps[j].filt_p;
        }
        break;
      }
      const double i_oo = pp.dd / det;
      const double i_od = -pp.od / det;
      const double i_dd = pp.oo / det;
      const double c_oo = a_oo * i_oo + a_od * i_od;
      const double c_od = a_oo * i_od + a_od * i_dd;
      const double c_do = a_do * i_oo + a_dd * i_od;
      const double c_dd = a_do * i_od + a_dd * i_dd;
      // x_s = x_filt + C (x_s[k+1] - x_pred[k+1]).
      const double r_o = sx[k + 1].o - next.pred_x.o;
      const double r_d = sx[k + 1].d - next.pred_x.d;
      sx[k].o = cur.filt_x.o + c_oo * r_o + c_od * r_d;
      sx[k].d = cur.filt_x.d + c_do * r_o + c_dd * r_d;
      // P_s = P_filt + C (P_s[k+1] - P_pred[k+1]) C^T.
      const double d_oo = sp[k + 1].oo - pp.oo;
      const double d_od = sp[k + 1].od - pp.od;
      const double d_dd = sp[k + 1].dd - pp.dd;
      const double t_oo = c_oo * d_oo + c_od * d_od;
      const double t_od = c_oo * d_od + c_od * d_dd;
      const double t_do = c_do * d_oo + c_dd * d_od;
      const double t_dd = c_do * d_od + c_dd * d_dd;
      sp[k].oo = cur.filt_p.oo + t_oo * c_oo + t_od * c_od;
      sp[k].od = cur.filt_p.od + t_oo * c_do + t_od * c_dd;
      sp[k].dd = cur.filt_p.dd + t_do * c_do + t_dd * c_dd;
    }

    model.states.reserve(steps.size());
    for (std::size_t k = 0; k < steps.size(); ++k) {
      State st;
      st.worker_time = steps[k].worker_time;
      st.offset = sx[k].o;
      st.drift = sx[k].d;
      st.var_offset = sp[k].oo;
      st.var_drift = sp[k].dd;
      // The interpolation knots are master-time estimates w + o(w); they must
      // stay strictly increasing for the correction to preserve local order.
      // Offsets move by microseconds over second-scale gaps, so an inversion
      // only happens on hostile input — drop the later knot then.
      if (!model.states.empty() &&
          st.worker_time + st.offset <=
              model.states.back().worker_time + model.states.back().offset) {
        CS_LOG_WARN << "KalmanDriftCorrection: rank " << r
                    << " dropped a non-monotone smoothed knot at worker_time "
                    << st.worker_time;
        continue;
      }
      model.states.push_back(st);
    }
    model.entry_slope = boundary_slope(model.states.front().drift);
    model.exit_slope = boundary_slope(model.states.back().drift);
    if (model.states.size() == 1 && samples.size() >= 2) {
      CS_LOG_WARN << "KalmanDriftCorrection: rank " << r
                  << " has a single usable measurement instant; falling back to "
                     "pure offset alignment";
    }
  }
  return KalmanDriftCorrection(std::move(models));
}

Time KalmanDriftCorrection::correct(Rank r, Time local_ts) const {
  CS_REQUIRE(r >= 0 && static_cast<std::size_t>(r) < models_.size(), "rank out of range");
  const RankModel& model = models_[static_cast<std::size_t>(r)];
  const auto& st = model.states;
  const State& first = st.front();
  if (st.size() == 1 || local_ts <= first.worker_time) {
    // Before the record (or a degenerate single-knot rank): extrapolate with
    // the smoothed boundary drift — the model-based analogue of extending
    // Eq. 3's mean-drift slope.
    return first.worker_time + first.offset +
           (local_ts - first.worker_time) * model.entry_slope;
  }
  const State& last = st.back();
  if (local_ts >= last.worker_time) {
    return last.worker_time + last.offset + (local_ts - last.worker_time) * model.exit_slope;
  }
  auto it = std::lower_bound(st.begin(), st.end(), local_ts,
                             [](const State& s, Time t) { return s.worker_time < t; });
  const State& b = *it;
  const State& a = *(it - 1);
  const double t = (local_ts - a.worker_time) / (b.worker_time - a.worker_time);
  const Time ma = a.worker_time + a.offset;
  const Time mb = b.worker_time + b.offset;
  return ma + (mb - ma) * t;
}

const std::vector<KalmanDriftCorrection::State>& KalmanDriftCorrection::states(Rank r) const {
  CS_REQUIRE(r >= 0 && static_cast<std::size_t>(r) < models_.size(), "rank out of range");
  return models_[static_cast<std::size_t>(r)].states;
}

}  // namespace chronosync
