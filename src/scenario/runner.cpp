#include "scenario/runner.hpp"

#include <cmath>
#include <numbers>
#include <sstream>
#include <utility>

#include "clockmodel/timer_spec.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "scenario/workload.hpp"
#include "sync/clc.hpp"
#include "sync/clc_stream.hpp"
#include "sync/interpolation.hpp"
#include "topology/cluster.hpp"
#include "topology/pinning.hpp"
#include "trace/logical_messages.hpp"
#include "verify/differential.hpp"
#include "verify/fault_injection.hpp"
#include "verify/invariants.hpp"
#include "workload/sweep.hpp"

namespace chronosync::scenario {

namespace {

TimerSpec build_timer(const ClockSpec& clock, const std::string& origin) {
  TimerSpec spec;
  try {
    spec = timer_specs::by_name(clock.timer);
  } catch (const std::invalid_argument& e) {
    throw ScenarioError(ScenarioErrorKind::Schema, origin + ": " + e.what());
  }
  if (clock.base_drift_max >= 0.0) spec.base_drift_max = clock.base_drift_max;
  if (clock.wander_sigma >= 0.0) spec.wander_sigma = clock.wander_sigma;
  if (clock.wander_interval >= 0.0) spec.wander_interval = clock.wander_interval;
  if (clock.wander_clamp >= 0.0) spec.wander_clamp = clock.wander_clamp;
  if (clock.node_offset_sigma >= 0.0) spec.node_offset_sigma = clock.node_offset_sigma;
  return spec;
}

JobConfig build_job(const ScenarioSpec& spec) {
  JobConfig job;
  const ClusterSpec cluster = clusters::xeon_rwth();
  job.placement = spec.workload.pinning == "block"
                      ? pinning::block(cluster, spec.workload.ranks)
                      : pinning::inter_node(cluster, spec.workload.ranks);
  job.timer = build_timer(spec.clock, spec.name);
  job.seed = spec.seed;

  const NetworkSpec& net = spec.network;
  if (net.asymmetry_extra > 0.0 || net.varying_amplitude > 0.0) {
    job.extra_latency = [net](Rank src, Rank dst, std::uint32_t, Time now) {
      Duration extra = 0.0;
      // Asymmetric routes: the "downlink" direction pays a fixed surcharge.
      if (net.asymmetry_extra > 0.0 && dst < src) extra += net.asymmetry_extra;
      // Time-varying congestion: every link breathes with one global cycle.
      if (net.varying_amplitude > 0.0) {
        const double phase = 2.0 * std::numbers::pi * now / net.varying_period;
        extra += net.varying_amplitude * 0.5 * (1.0 + std::sin(phase));
      }
      return extra;
    };
  }
  return job;
}

AppRunResult run_workload(const ScenarioSpec& spec) {
  if (spec.workload.kind == WorkloadKind::Dynamic) {
    return run_dynamic_workload(spec.workload, build_job(spec));
  }
  SweepConfig cfg;
  cfg.rounds = spec.workload.rounds;
  cfg.bytes = spec.workload.bytes;
  cfg.gap_mean = spec.workload.gap_mean;
  cfg.gap_spread = spec.workload.gap_spread;
  cfg.collective_every = spec.workload.collective_every;
  cfg.probe_pings = spec.workload.probe_pings;
  cfg.probe_every = spec.workload.probe_every;
  return run_sweep(cfg, build_job(spec));
}

Trace apply_clock_faults(Trace trace, const ClockSpec& clock) {
  for (const DriftStormSpec& storm : clock.storms) {
    trace = verify::with_drift_storm(trace, storm.nodes, storm.start_fraction,
                                     storm.duration_fraction, storm.extra_ppm * units::ppm);
  }
  for (const ClockStepSpec& step : clock.steps) {
    const auto& events = trace.events(step.rank);
    if (events.empty()) continue;
    const Time t_min = events.front().local_ts;
    const Time at = t_min + step.at_fraction * (events.back().local_ts - t_min);
    trace = verify::with_clock_step(trace, step.rank, at, step.step);
  }
  for (const Rank rank : clock.leap_second_ranks) {
    const auto& events = trace.events(rank);
    if (events.empty()) continue;
    // A leap second relative to the rest of the job: one full second of step
    // at 60% of the rank's span, the largest discontinuity NTP clocks see.
    const Time t_min = events.front().local_ts;
    const Time at = t_min + 0.6 * (events.back().local_ts - t_min);
    trace = verify::with_clock_step(trace, rank, at, 1.0);
  }
  return trace;
}

void check_expectations(const ExpectSpec& expect, ScenarioOutcome& out) {
  auto fail = [&out](const std::string& what) { out.failures.push_back(what); };
  std::ostringstream os;
  if (expect.raw_violations_min >= 0 &&
      out.raw_violations < static_cast<std::size_t>(expect.raw_violations_min)) {
    os << "expected >= " << expect.raw_violations_min << " raw Eq. 1 violation(s), got "
       << out.raw_violations;
    fail(os.str());
  }
  if (expect.raw_violations_max >= 0 &&
      out.raw_violations > static_cast<std::size_t>(expect.raw_violations_max)) {
    os.str("");
    os << "expected <= " << expect.raw_violations_max << " raw Eq. 1 violation(s), got "
       << out.raw_violations;
    fail(os.str());
  }
  if (expect.structural_clean && out.raw_structural > 0) {
    os.str("");
    os << "raw trace has " << out.raw_structural << " structural invariant violation(s)";
    fail(os.str());
  }
  if (expect.differential_clean && !out.differential_clean) {
    fail("differential suite reported contract failures");
  }
  if (expect.clc_repairs_min >= 0 &&
      out.clc_repairs < static_cast<std::size_t>(expect.clc_repairs_min)) {
    os.str("");
    os << "expected the CLC to repair >= " << expect.clc_repairs_min
       << " event(s), it repaired " << out.clc_repairs;
    fail(os.str());
  }
  if (expect.clc_clean_audit && out.clc_audit_violations > 0) {
    os.str("");
    os << "CLC output failed the zero-slack audit with " << out.clc_audit_violations
       << " violation(s)";
    fail(os.str());
  }
  if (expect.stream_identical && !out.stream_identical) {
    fail("windowed streaming CLC diverged from the in-memory CLC");
  }
  for (const AccuracyExpectSpec& a : expect.accuracy) {
    const verify::MethodAccuracy* method = nullptr;
    const verify::MethodAccuracy* reference = nullptr;
    for (const auto& m : out.accuracy) {
      if (m.name == a.method) method = &m;
      if (m.name == a.reference) reference = &m;
    }
    if (method == nullptr || reference == nullptr) {
      os.str("");
      os << "accuracy race " << a.method << " vs " << a.reference
         << ": method did not run (no ground truth or probes unusable)";
      fail(os.str());
      continue;
    }
    const double bound = a.max_rms_ratio * reference->rms_error + a.rms_slack;
    if (!(method->rms_error <= bound)) {
      os.str("");
      os << "accuracy race: rms(" << a.method << ") = " << method->rms_error
         << " s exceeds " << a.max_rms_ratio << " * rms(" << a.reference << ") + "
         << a.rms_slack << " = " << bound << " s";
      fail(os.str());
    }
  }
}

// Phase harness: one span on the trace timeline plus the phase's wall time
// fed into the scenario.phase_seconds quantile histogram (tail-latency view
// across phases and scenarios).  Span names must be string literals.
template <class Fn>
decltype(auto) timed_phase(const char* name, Fn&& fn) {
  obs::Span span(name);
  struct PhaseTimer {
    std::uint64_t t0;
    ~PhaseTimer() {
      if (t0 != 0) {
        obs::quantile_histogram("scenario.phase_seconds")
            .add(static_cast<double>(obs::now_ns() - t0) * 1e-9);
      }
    }
  } timer{obs::metrics_enabled() ? obs::now_ns() : 0};
  return fn();
}

}  // namespace

ScenarioOutcome run_scenario(const ScenarioSpec& spec, const ScenarioRunOptions& options) {
  CS_SPAN("scenario.run");
  obs::counter("scenario.runs").add(1);

  ScenarioOutcome out;
  out.name = spec.name;

  AppRunResult res = timed_phase("scenario.simulate", [&] { return run_workload(spec); });
  const Trace trace = timed_phase(
      "scenario.inject", [&] { return apply_clock_faults(std::move(res.trace), spec.clock); });
  out.events = trace.total_events();
  obs::counter("scenario.events").add(static_cast<std::int64_t>(out.events));

  const auto messages = trace.match_messages();
  const auto logical = derive_logical_messages(trace);
  const ReplaySchedule schedule(trace, messages, logical);

  // Raw census: how badly do the recorded timestamps violate the paper's
  // invariants before any correction runs?
  const verify::InvariantChecker strict(trace, schedule, {});
  const verify::VerifyReport raw = timed_phase(
      "scenario.audit_raw", [&] { return strict.check(TimestampArray::from_local(trace)); });
  out.raw_violations = raw.count(verify::InvariantKind::ClockCondition);
  out.raw_worst = raw.worst_slack(verify::InvariantKind::ClockCondition);
  out.raw_structural = raw.total() - out.raw_violations;
  obs::counter("scenario.raw_violations").add(static_cast<std::int64_t>(out.raw_violations));

  // Every method, every pairwise contract, every scanner.
  const verify::DifferentialReport diff = timed_phase(
      "scenario.differential", [&] { return verify::run_differential_suite(trace, res.offsets); });
  out.differential_clean = diff.ok();
  out.accuracy = diff.accuracy;
  if (!diff.ok()) {
    for (const auto& f : diff.failures) out.failures.push_back("differential: " + f);
  }

  // The headline repair path: interpolated input -> CLC -> zero-slack audit.
  auto [input, clc] = timed_phase("scenario.repair", [&] {
    TimestampArray in =
        verify::probes_usable(trace, res.offsets)
            ? apply_correction(trace, LinearInterpolation::from_store(res.offsets))
            : TimestampArray::from_local(trace);
    ClcResult result = controlled_logical_clock(trace, schedule, in);
    return std::pair(std::move(in), std::move(result));
  });
  out.clc_repairs = clc.violations_repaired;
  obs::counter("scenario.clc_repairs").add(static_cast<std::int64_t>(out.clc_repairs));
  const verify::VerifyReport audit = timed_phase(
      "scenario.audit_repair", [&] { return strict.check_correction(input, clc.corrected); });
  out.clc_audit_violations = audit.total();

  timed_phase("scenario.stream_check", [&] {
    // Generous bounds keep the windowed run divergence-free, so the
    // cross-check can demand bit-identity on every scenario.
    StreamClcOptions stream_opt;
    stream_opt.backward_window = 1e4;
    stream_opt.horizon = 1e4;
    stream_opt.emit_batch = 256;
    std::vector<std::string> stream_failures;
    verify::cross_check_windowed_clc(trace, options.work_dir, stream_opt, stream_failures);
    // Only the identity verdict is kept: it is what the expectations consume.
    out.stream_identical = stream_failures.empty();
    for (const auto& f : stream_failures) out.failures.push_back("stream: " + f);
  });

  // Contract failures above are reported unconditionally; the declared
  // expectations judge the measured outcome on top.
  std::vector<std::string> contract = std::move(out.failures);
  out.failures.clear();
  check_expectations(spec.expect, out);
  // Deduplicate: differential/stream breaches already fail their expectation
  // flags; keep the detailed lines after the expectation verdicts.
  out.failures.insert(out.failures.end(), contract.begin(), contract.end());
  return out;
}

std::string ScenarioOutcome::summary() const {
  std::ostringstream os;
  os << "scenario " << name << ": " << events << " event(s), " << raw_violations
     << " raw Eq. 1 violation(s) (worst " << raw_worst << " s), " << raw_structural
     << " structural; differential " << (differential_clean ? "clean" : "FAILED")
     << "; CLC repaired " << clc_repairs << " with " << clc_audit_violations
     << " audit violation(s); streaming CLC "
     << (stream_identical ? "bit-identical" : "DIVERGED") << "\n";
  for (const auto& a : accuracy) {
    os << "  accuracy " << a.name << ": rms " << a.rms_error << " s, max |err| "
       << a.max_abs_error << " s\n";
  }
  for (const auto& f : failures) os << "  FAIL " << f << "\n";
  return os.str();
}

}  // namespace chronosync::scenario
