#include "verify/differential.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <sstream>

#include "analysis/clock_condition.hpp"
#include "analysis/clock_condition_stream.hpp"
#include "common/expect.hpp"
#include "common/log.hpp"
#include "common/mathutil.hpp"
#include "common/scratch_dir.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "sync/clc.hpp"
#include "sync/error_estimation.hpp"
#include "sync/interpolation.hpp"
#include "sync/kalman_drift.hpp"
#include "sync/offset_alignment.hpp"
#include "sync/omp_clc.hpp"
#include "trace/logical_messages.hpp"
#include "trace/stream_io.hpp"
#include "verify/clc_oracle.hpp"
#include "verify/clock_condition_oracle.hpp"

namespace chronosync::verify {

namespace {

/// Pairs contracted to agree bit-for-bit regardless of input.
constexpr std::pair<const char*, const char*> kExactContracts[] = {
    {"interpolation+clc", "interpolation+clc-replay"},
};

bool must_match_exactly(const std::string& a, const std::string& b) {
  for (const auto& [x, y] : kExactContracts) {
    if ((a == x && b == y) || (a == y && b == x)) return true;
  }
  return false;
}

// Builds one MethodOutput under a span named for the method (span names must
// be string literals — the obs ring stores the pointer, hence the explicit
// `span_name` beside the owned `name`), feeding the method's wall time into
// the verify.method_seconds quantile histogram.
template <class Fn>
MethodOutput timed_method(const char* span_name, std::string name, bool restores, Fn&& build) {
  obs::Span span(span_name);
  const std::uint64_t t0 = obs::metrics_enabled() ? obs::now_ns() : 0;
  MethodOutput out{std::move(name), build(), restores};
  if (t0 != 0) {
    obs::quantile_histogram("verify.method_seconds")
        .add(static_cast<double>(obs::now_ns() - t0) * 1e-9);
  }
  obs::counter("verify.methods_run").add(1);
  return out;
}

}  // namespace

bool probes_usable(const Trace& trace, const OffsetStore& offsets) {
  if (offsets.ranks() != trace.ranks()) return false;
  for (Rank r = 0; r < offsets.ranks(); ++r) {
    if (offsets.of(r).size() < 2) return false;
  }
  return offsets.ranks() > 0;
}

std::vector<MethodOutput> run_all_methods(const Trace& trace, const OffsetStore& offsets,
                                          const std::vector<MessageRecord>& messages,
                                          const ReplaySchedule& schedule) {
  CS_SPAN("verify.run_all_methods");
  std::vector<MethodOutput> out;
  out.push_back(timed_method("verify.method.raw", "raw", false,
                             [&] { return TimestampArray::from_local(trace); }));

  const bool have_probes = probes_usable(trace, offsets);
  if (have_probes) {
    out.push_back(timed_method("verify.method.offset-alignment", "offset-alignment", false, [&] {
      return apply_correction(trace, OffsetAlignment::from_store(offsets));
    }));
    out.push_back(
        timed_method("verify.method.linear-interpolation", "linear-interpolation", false, [&] {
          return apply_correction(trace, LinearInterpolation::from_store(offsets));
        }));
    out.push_back(timed_method("verify.method.piecewise-interpolation",
                               "piecewise-interpolation", false, [&] {
                                 return apply_correction(
                                     trace, PiecewiseInterpolation::from_store(offsets));
                               }));
    out.push_back(timed_method("verify.method.kalman-drift", "kalman-drift", false, [&] {
      return apply_correction(trace, KalmanDriftCorrection::from_store(offsets));
    }));
  } else {
    CS_LOG_WARN << "differential: offset store incomplete; skipping the "
                   "probe-based corrections";
  }

  for (const auto method : {EstimationMethod::Regression, EstimationMethod::ConvexHull,
                            EstimationMethod::MinMax}) {
    const char* span_name = method == EstimationMethod::Regression
                                ? "verify.method.error-estimation-regression"
                                : method == EstimationMethod::ConvexHull
                                      ? "verify.method.error-estimation-convex-hull"
                                      : "verify.method.error-estimation-min-max";
    out.push_back(timed_method(span_name, "error-estimation-" + to_string(method), false, [&] {
      return apply_correction(trace,
                              ErrorEstimationCorrection::build(trace, messages, method));
    }));
  }

  const TimestampArray input =
      have_probes ? apply_correction(trace, LinearInterpolation::from_store(offsets))
                  : TimestampArray::from_local(trace);
  out.push_back(
      timed_method("verify.method.interpolation+clc", "interpolation+clc", true,
                   [&] { return controlled_logical_clock(trace, schedule, input).corrected; }));
  out.push_back(
      timed_method("verify.method.interpolation+clc-replay", "interpolation+clc-replay", true,
                   [&] { return replay_order_clc(trace, schedule, input).corrected; }));
  return out;
}

const std::vector<std::string>& all_method_names() {
  // Emission order of run_all_methods; keep the two in sync.
  static const std::vector<std::string> names = {
      "raw",
      "offset-alignment",
      "linear-interpolation",
      "piecewise-interpolation",
      "kalman-drift",
      "error-estimation-regression",
      "error-estimation-convex-hull",
      "error-estimation-min-max",
      "interpolation+clc",
      "interpolation+clc-replay",
  };
  return names;
}

std::vector<MethodAccuracy> ground_truth_accuracy(const Trace& trace,
                                                  const std::vector<MethodOutput>& outputs) {
  CS_SPAN("verify.accuracy_race");
  // Master timeline: the piecewise-linear map true time -> rank-0 local time.
  // A perfect correction maps every worker timestamp onto this line, so the
  // residual against it is the method's absolute error.
  PiecewiseLinear master;
  if (trace.ranks() > 0) {
    for (const Event& e : trace.events(0)) {
      if (master.size() > 0 && !(e.true_ts > master.knots().back().x)) continue;
      master.append(e.true_ts, e.local_ts);
    }
  }
  if (master.size() < 2) {
    CS_LOG_WARN << "ground_truth_accuracy: rank 0 has fewer than two distinct true "
                   "timestamps; skipping the accuracy race";
    return {};
  }

  std::vector<MethodAccuracy> out;
  out.reserve(outputs.size());
  for (const auto& m : outputs) {
    MethodAccuracy acc;
    acc.name = m.name;
    double sum_sq = 0.0;
    for (Rank r = 0; r < trace.ranks(); ++r) {
      const auto& events = trace.events(r);
      const auto& ts = m.ts.of_rank(r);
      for (std::uint32_t i = 0; i < events.size(); ++i) {
        const double err = ts[i] - master(events[i].true_ts);
        ++acc.events;
        sum_sq += err * err;
        acc.max_abs_error = std::max(acc.max_abs_error, std::abs(err));
      }
    }
    acc.rms_error = acc.events > 0 ? std::sqrt(sum_sq / static_cast<double>(acc.events)) : 0.0;
    out.push_back(std::move(acc));
  }
  return out;
}

DifferentialReport compare_methods(const Trace& trace,
                                   const std::vector<MethodOutput>& outputs) {
  CS_SPAN("verify.compare_methods");
  // Informational pairs only: feeds the above_tolerance count, never a failure.
  constexpr double kTolerance = 1e-9;
  DifferentialReport report;
  for (std::size_t a = 0; a < outputs.size(); ++a) {
    for (std::size_t b = a + 1; b < outputs.size(); ++b) {
      PairDivergence d;
      d.method_a = outputs[a].name;
      d.method_b = outputs[b].name;
      d.must_match = must_match_exactly(d.method_a, d.method_b);
      for (Rank r = 0; r < trace.ranks(); ++r) {
        const auto& ta = outputs[a].ts.of_rank(r);
        const auto& tb = outputs[b].ts.of_rank(r);
        CS_REQUIRE(ta.size() == tb.size(), "method outputs differ in shape");
        for (std::uint32_t i = 0; i < ta.size(); ++i) {
          ++d.events;
          const bool identical = std::bit_cast<std::uint64_t>(ta[i]) ==
                                 std::bit_cast<std::uint64_t>(tb[i]);
          const double diff = identical ? 0.0 : std::abs(ta[i] - tb[i]);
          const double limit = d.must_match ? 0.0 : kTolerance;
          if (!identical && !(diff <= limit)) ++d.above_tolerance;
          if (diff > d.max_abs_diff || (d.events == 1)) {
            d.max_abs_diff = diff;
            d.worst = {r, i};
          }
        }
      }
      if (d.must_match && d.above_tolerance > 0) {
        std::ostringstream os;
        os << d.method_a << " vs " << d.method_b << ": contracted bit-identical but "
           << d.above_tolerance << " event(s) diverge (max " << d.max_abs_diff
           << " s at rank " << d.worst.proc << " event " << d.worst.index << ")";
        report.failures.push_back(os.str());
      }
      report.pairs.push_back(std::move(d));
    }
  }
  return report;
}

namespace {

void compare_reports(const char* what, const ClockConditionReport& a,
                     const ClockConditionReport& b, std::vector<std::string>& failures) {
  if (a == b) return;
  std::ostringstream os;
  os << what << ": reports diverge:";
  auto field = [&](const char* name, double x, double y) {
    if (x != y) os << ' ' << name << " (" << x << " vs " << y << ")";
  };
  field("p2p_messages", static_cast<double>(a.p2p_messages), static_cast<double>(b.p2p_messages));
  field("p2p_reversed", static_cast<double>(a.p2p_reversed), static_cast<double>(b.p2p_reversed));
  field("p2p_violations", static_cast<double>(a.p2p_violations),
        static_cast<double>(b.p2p_violations));
  field("p2p_worst", a.p2p_worst, b.p2p_worst);
  field("logical_messages", static_cast<double>(a.logical_messages),
        static_cast<double>(b.logical_messages));
  field("logical_reversed", static_cast<double>(a.logical_reversed),
        static_cast<double>(b.logical_reversed));
  field("logical_violations", static_cast<double>(a.logical_violations),
        static_cast<double>(b.logical_violations));
  field("logical_worst", a.logical_worst, b.logical_worst);
  field("total_events", static_cast<double>(a.total_events), static_cast<double>(b.total_events));
  field("message_events", static_cast<double>(a.message_events),
        static_cast<double>(b.message_events));
  failures.push_back(os.str());
}

}  // namespace

std::size_t cross_check_scans(const Trace& trace, const ReplaySchedule& schedule,
                              std::vector<std::string>& failures) {
  CS_SPAN("verify.cross_check_scans");
  const TimestampArray local = TimestampArray::from_local(trace);
  const ClockConditionReport oracle = clock_condition_oracle(
      trace, local, trace.match_messages(), derive_logical_messages(trace));
  const ClockConditionReport csr = check_clock_condition(trace, local, schedule);
  compare_reports("oracle vs CSR scan", oracle, csr, failures);

  std::stringstream v2;
  write_trace_v2(trace, v2);
  TraceReader reader(v2);
  const ClockConditionReport streamed = scan_clock_condition(reader);
  compare_reports("oracle vs streaming scan", oracle, streamed, failures);

  const ScratchDir scratch(std::filesystem::temp_directory_path().string());
  const std::string path = scratch.file("scan.cstr");
  write_trace_v2_file(trace, path);
  compare_reports("oracle vs file scan", oracle, scan_clock_condition_file(path), failures);
  return 3;
}

std::size_t cross_check_windowed_clc(const Trace& trace, const std::string& work_dir,
                                     const StreamClcOptions& options,
                                     std::vector<std::string>& failures) {
  CS_SPAN("verify.cross_check_windowed_clc");
  // A private directory per call: concurrent cross-checks sharing work_dir
  // must never see each other's trace or spill files.
  const ScratchDir scratch(work_dir);
  const std::string in_path = scratch.file("windowed_clc_in.cstr");
  const std::string out_path = scratch.file("windowed_clc_out.cstr");
  write_trace_v2_file(trace, in_path);
  const StreamClcStats stats = clc_stream_file(in_path, out_path, options);

  std::size_t comparisons = 0;
  if (stats.ramp_clamped != 0 || stats.horizon_dropped != 0 || stats.forced != 0 ||
      stats.repeated_ids != 0 || stats.kind_conflicts != 0) {
    std::ostringstream os;
    os << "windowed CLC: fixture must be divergence-free but ramp_clamped="
       << stats.ramp_clamped << " horizon_dropped=" << stats.horizon_dropped
       << " forced=" << stats.forced << " repeated_ids=" << stats.repeated_ids
       << " kind_conflicts=" << stats.kind_conflicts;
    failures.push_back(os.str());
  }
  ++comparisons;

  const auto messages = trace.match_messages();
  const auto logical = derive_logical_messages(trace);
  const ReplaySchedule schedule(trace, messages, logical);
  const ClcResult mem =
      controlled_logical_clock(trace, schedule, TimestampArray::from_local(trace), options.clc);

  const Trace streamed = read_trace_v2_file(out_path);

  if (streamed.ranks() != trace.ranks()) {
    std::ostringstream os;
    os << "windowed CLC: output has " << streamed.ranks() << " rank(s), input has "
       << trace.ranks();
    failures.push_back(os.str());
    return comparisons + 1;
  }
  for (Rank r = 0; r < trace.ranks(); ++r) {
    const auto& in_ev = trace.events(r);
    const auto& out_ev = streamed.events(r);
    if (in_ev.size() != out_ev.size()) {
      std::ostringstream os;
      os << "windowed CLC: rank " << r << " has " << out_ev.size() << " event(s), expected "
         << in_ev.size();
      failures.push_back(os.str());
      continue;
    }
    const auto& lc = mem.corrected.of_rank(r);
    for (std::size_t i = 0; i < in_ev.size(); ++i) {
      ++comparisons;
      const Event& a = in_ev[i];
      const Event& b = out_ev[i];
      if (std::bit_cast<std::uint64_t>(b.local_ts) != std::bit_cast<std::uint64_t>(lc[i])) {
        std::ostringstream os;
        os << "windowed CLC: rank " << r << " event " << i << " corrected ts "
           << b.local_ts << " != in-memory " << lc[i] << " (diff " << (b.local_ts - lc[i])
           << ")";
        failures.push_back(os.str());
      }
      if (std::bit_cast<std::uint64_t>(b.true_ts) != std::bit_cast<std::uint64_t>(a.true_ts) ||
          b.type != a.type || b.region != a.region || b.peer != a.peer || b.tag != a.tag ||
          b.bytes != a.bytes || b.msg_id != a.msg_id || b.coll != a.coll ||
          b.coll_id != a.coll_id || b.root != a.root || b.omp_instance != a.omp_instance ||
          b.thread != a.thread) {
        std::ostringstream os;
        os << "windowed CLC: rank " << r << " event " << i
           << " non-corrected fields did not survive the round-trip";
        failures.push_back(os.str());
      }
    }
  }

  ++comparisons;
  if (stats.violations_repaired != mem.violations_repaired ||
      std::bit_cast<std::uint64_t>(stats.max_jump) !=
          std::bit_cast<std::uint64_t>(mem.max_jump) ||
      std::bit_cast<std::uint64_t>(stats.total_jump) !=
          std::bit_cast<std::uint64_t>(mem.total_jump)) {
    std::ostringstream os;
    os << "windowed CLC: jump stats diverge: repaired " << stats.violations_repaired << " vs "
       << mem.violations_repaired << ", max " << stats.max_jump << " vs " << mem.max_jump
       << ", total " << stats.total_jump << " vs " << mem.total_jump;
    failures.push_back(os.str());
  }
  return comparisons;
}

std::size_t cross_check_omp_clc(const Trace& omp_trace, const Placement& thread_placement,
                                std::vector<std::string>& failures) {
  CS_SPAN("verify.cross_check_omp_clc");
  const Trace threads = split_omp_threads(omp_trace, thread_placement);
  const auto logical = derive_omp_logical_messages(threads);
  const ReplaySchedule schedule(threads, {}, logical);
  const TimestampArray input = TimestampArray::from_local(threads);
  const ClcResult driver = controlled_logical_clock(threads, schedule, input);
  const ClcResult oracle = replay_order_clc(threads, schedule, input);
  const OmpClcResult merged = omp_controlled_logical_clock(omp_trace, thread_placement);

  std::size_t comparisons = 0;

  // Driver vs replay-order oracle on the thread schedule: the same
  // bit-identical contract the MPI differential enforces, now over POMP
  // logical edges.
  for (Rank t = 0; t < threads.ranks(); ++t) {
    const auto& a = driver.corrected.of_rank(t);
    const auto& b = oracle.corrected.of_rank(t);
    CS_REQUIRE(a.size() == b.size(), "omp CLC outputs differ in shape");
    for (std::uint32_t i = 0; i < a.size(); ++i) {
      ++comparisons;
      if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) {
        std::ostringstream os;
        os << "omp CLC: driver vs replay-order oracle diverge at thread " << t << " event " << i << " ("
           << a[i] << " vs " << b[i] << ")";
        failures.push_back(os.str());
      }
    }
  }

  ++comparisons;
  if (driver.violations_repaired != oracle.violations_repaired ||
      std::bit_cast<std::uint64_t>(driver.max_jump) !=
          std::bit_cast<std::uint64_t>(oracle.max_jump) ||
      std::bit_cast<std::uint64_t>(driver.total_jump) !=
          std::bit_cast<std::uint64_t>(oracle.total_jump)) {
    std::ostringstream os;
    os << "omp CLC: jump stats diverge between driver and replay-order oracle: repaired "
       << driver.violations_repaired << " vs " << oracle.violations_repaired << ", max "
       << driver.max_jump << " vs " << oracle.max_jump << ", total " << driver.total_jump
       << " vs " << oracle.total_jump;
    failures.push_back(os.str());
  }

  // Merged backend output vs the driver CLC on the split trace: replays the
  // backend's own merge cursors, so a split/merge bookkeeping bug shows up as
  // a divergence here even when the CLC itself is correct.
  std::vector<std::uint32_t> cursor(static_cast<std::size_t>(thread_placement.ranks()), 0);
  const auto& events = omp_trace.events(0);
  const auto& merged_ts = merged.corrected.of_rank(0);
  for (std::uint32_t i = 0; i < events.size(); ++i) {
    ++comparisons;
    const ThreadId th = events[i].thread;
    const Time expect = driver.corrected.at({th, cursor[static_cast<std::size_t>(th)]++});
    if (std::bit_cast<std::uint64_t>(merged_ts[i]) != std::bit_cast<std::uint64_t>(expect)) {
      std::ostringstream os;
      os << "omp CLC: merged output diverges from the thread-split CLC at event " << i
         << " (thread " << th << ": " << merged_ts[i] << " vs " << expect << ")";
      failures.push_back(os.str());
    }
  }

  // The OMP CLC is a clock-restoring method: zero-slack audit on the
  // thread-split layout, against the POMP happened-before edges.
  VerifyOptions opt;
  opt.clock_condition_slack = 0.0;
  const InvariantChecker checker(threads, schedule, opt);
  const VerifyReport audit = checker.check(driver.corrected);
  ++comparisons;
  if (!audit.ok()) {
    std::ostringstream os;
    os << "omp CLC: zero-slack invariant audit found " << audit.total() << " violation(s)\n"
       << audit.summary();
    failures.push_back(os.str());
  }
  return comparisons;
}

std::string DifferentialReport::summary() const {
  std::ostringstream os;
  os << "differential: " << pairs.size() << " method pair(s), " << failures.size()
     << " contract failure(s)\n";
  for (const auto& p : pairs) {
    os << "  " << p.method_a << " vs " << p.method_b << ": max |diff| "
       << p.max_abs_diff << " s, " << p.above_tolerance << "/" << p.events
       << " above tolerance" << (p.must_match ? " [must match]" : "") << "\n";
  }
  for (const auto& a : accuracy) {
    os << "  accuracy " << a.name << ": rms " << a.rms_error << " s, max |err| "
       << a.max_abs_error << " s over " << a.events << " event(s)\n";
  }
  for (const auto& f : failures) os << "  FAIL " << f << "\n";
  return os.str();
}

DifferentialReport run_differential_suite(const Trace& trace, const OffsetStore& offsets) {
  CS_SPAN("verify.run_differential_suite");
  const auto messages = trace.match_messages();
  const auto logical = derive_logical_messages(trace);
  const ReplaySchedule schedule(trace, messages, logical);

  const auto outputs = run_all_methods(trace, offsets, messages, schedule);
  DifferentialReport report = compare_methods(trace, outputs);
  report.accuracy = ground_truth_accuracy(trace, outputs);
  cross_check_scans(trace, schedule, report.failures);

  {
    // Invariant audit: CLC outputs must be exactly clean; every other method
    // must at least keep timestamps finite and local order intact.
    CS_SPAN("verify.audit");
    for (const auto& m : outputs) {
      VerifyOptions opt;
      opt.clock_condition_slack = m.restores_clock_condition ? 0.0 : kTimeInfinity;
      const InvariantChecker checker(trace, schedule, opt);
      const VerifyReport audit = checker.check(m.ts);
      if (!audit.ok()) {
        std::ostringstream os;
        os << m.name << ": invariant audit found " << audit.total() << " violation(s)\n"
           << audit.summary();
        report.failures.push_back(os.str());
      }
    }
  }
  obs::counter("verify.contract_failures").add(static_cast<std::int64_t>(report.failures.size()));
  return report;
}

}  // namespace chronosync::verify
