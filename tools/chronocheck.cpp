// chronocheck — correction-stack verification driver.
//
// Three modes, composable in one invocation:
//
//   chronocheck <trace-file> [--slack S]
//       Audits the file's recorded timestamps against the paper invariants
//       (finiteness, per-rank local order, Eq. 1 with slack S) and
//       cross-checks both clock-condition scanners against their oracle on
//       it.  Violations of Eq. 1 are expected on raw traces — that is the
//       paper's point — so they fail the run only under --strict.
//
//   chronocheck --synthetic [--ranks N --rounds R --seed S]
//       Simulates a drifting-clock run, executes every correction method on
//       it, audits each output, compares all outputs pairwise (the CLC driver
//       and its replay-order oracle must be bit-identical), and cross-checks
//       the scanners.
//
//   chronocheck --method <name> [--ranks N --rounds R --seed S --probe-every K]
//       Runs one named correction method (vocabulary: verify::
//       all_method_names()) on the synthetic fixture, audits its output
//       (zero slack for clock-restoring methods), and prints its RMS error
//       against the simulator's ground-truth master time next to the raw and
//       linear-interpolation baselines.  An unknown name exits 4 with one
//       typed line, exactly like an invalid scenario config.
//
//   chronocheck --omp [--threads T --rounds R --seed S]
//       Races the OpenMP CLC backend differentially on a POMP benchmark
//       trace: merged output vs the CLC on the thread-split trace
//       (bit-identical), the CLC driver vs its replay-order oracle on the
//       POMP schedule (bit-identical), and a zero-slack invariant audit.
//
//   chronocheck --faults [--ranks N --rounds R --seed S]
//       Re-runs the synthetic differential suite under every fault class of
//       verify/fault_injection.hpp.  Every class must complete with a clean
//       report — degenerate inputs are handled, not crashed on.
//
//   chronocheck --stream [--ranks N --rounds R --seed S --work-dir D --input F]
//       Cross-checks the out-of-core windowed streaming CLC against the
//       in-memory CLC on the synthetic fixture (or on the v2 trace file F):
//       the corrected trace and the jump statistics must be bit-identical
//       whenever the streaming run reports zero divergences.
//
//   chronocheck --scenario <file> [--work-dir D]
//   chronocheck --scenario-battery <dir> [--work-dir D]
//       Runs one committed adversarial scenario (or every *.json in a
//       directory) end-to-end: simulate the configured workload on the
//       configured clocks and network, apply the declared clock faults, audit
//       the raw trace, run the full differential suite, repair with the CLC,
//       audit the repair with zero slack, cross-check the streaming CLC, and
//       judge the scenario's declared expectations.
//
//   chronocheck --write-fixture <file> [--ranks N --rounds R --seed S]
//       Writes the synthetic drifting-clock fixture as a v2 trace file (a
//       reproducible corpus seed for the fuzz battery and the exit-code
//       regression tests).
//
// Observability (every mode): --obs-level {off,metrics,trace} selects the
// level, --trace-out F writes a Chrome trace, --metrics-out F writes a
// chronosync-metrics-v1 JSON snapshot (whatever F's extension) that also
// carries the process RSS/CPU gauges, sampled as it is written.  Battery mode
// derives one artifact pair per scenario from the requested paths and resets
// the recorded state between entries.  Invalid values for any of these exit 2
// with one typed line, like every other usage error.
//
// Exit codes: 0 all checks passed; 1 a requested check failed; 2 usage or
// unexpected error (an unknown option among them, refused before any work);
// 3 trace i/o error (missing/truncated/corrupt trace file); 4 scenario config
// error (missing file, malformed JSON, schema violation).
// Every error path prints exactly one "chronocheck: ..." line on stderr.
#include <algorithm>
#include <chrono>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "obs/obs.hpp"
#include "obs/session.hpp"
#include "ompsim/omp_bench.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sync/replay.hpp"
#include "trace/logical_messages.hpp"
#include "trace/stream_io.hpp"
#include "trace/trace_io_error.hpp"
#include "verify/differential.hpp"
#include "verify/fault_injection.hpp"
#include "verify/invariants.hpp"
#include "workload/sweep.hpp"

using namespace chronosync;

namespace {

AppRunResult make_fixture(const Cli& cli) {
  SweepConfig cfg;
  // Long inter-round gaps let drift accumulate enough that the interpolated
  // input still violates Eq. 1 — otherwise the CLC has nothing to repair and
  // the differential only certifies the trivial path.
  cfg.rounds = static_cast<int>(cli.get_int("rounds", 400));
  cfg.gap_mean = cli.get_double("gap", 3.0);
  cfg.collective_every = 50;
  cfg.probe_every = static_cast<int>(cli.get_int("probe-every", 0));
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(),
                                      static_cast<int>(cli.get_int("ranks", 8)));
  job.timer = timer_specs::intel_tsc();
  job.seed = cli.get_seed();
  return run_sweep(cfg, std::move(job));
}

int audit_file(const std::string& path, const Cli& cli) {
  std::cout << "chronocheck: auditing " << path << "\n";
  const Trace trace = read_trace_v2_file(path);
  const auto messages = trace.match_messages();
  const auto logical = derive_logical_messages(trace);
  const ReplaySchedule schedule(trace, messages, logical);

  verify::VerifyOptions opt;
  opt.clock_condition_slack = cli.get_double("slack", 0.0);
  const verify::InvariantChecker checker(trace, schedule, opt);
  const verify::VerifyReport report = checker.check(TimestampArray::from_local(trace));
  std::cout << report.summary();

  std::vector<std::string> failures;
  verify::cross_check_scans(trace, schedule, failures);
  for (const auto& f : failures) std::cout << "FAIL " << f << "\n";

  const std::size_t structural =
      report.total() - report.count(verify::InvariantKind::ClockCondition);
  const bool clock_fails =
      cli.has("strict") && report.count(verify::InvariantKind::ClockCondition) > 0;
  if (structural > 0 || clock_fails || !failures.empty()) return 1;
  std::cout << "ok: structural invariants hold"
            << (report.count(verify::InvariantKind::ClockCondition) > 0
                    ? " (clock-condition violations reported above; re-run with "
                      "--strict to fail on them)"
                    : "")
            << "\n";
  return 0;
}

int run_synthetic(const Cli& cli) {
  const AppRunResult res = make_fixture(cli);
  std::cout << "chronocheck: synthetic fixture with " << res.trace.ranks() << " ranks, "
            << res.trace.total_events() << " events\n";
  const auto report = verify::run_differential_suite(res.trace, res.offsets);
  std::cout << report.summary();
  if (!report.ok()) return 1;
  std::cout << "ok: differential suite clean\n";
  return 0;
}

int run_method(const Cli& cli) {
  const std::string name = cli.get("method", "");
  const auto& known = verify::all_method_names();
  if (std::find(known.begin(), known.end(), name) == known.end()) {
    // The method vocabulary is closed and shared with the scenario layer's
    // accuracy expectations; an unknown name is the same class of input
    // error as an invalid config, so it takes the same typed exit path.
    std::string vocabulary;
    for (const auto& n : known) vocabulary += (vocabulary.empty() ? "" : ", ") + n;
    throw scenario::ScenarioError(scenario::ScenarioErrorKind::Schema,
                                  "--method \"" + name + "\" is not a known correction "
                                  "method (known: " + vocabulary + ")");
  }

  const AppRunResult res = make_fixture(cli);
  std::cout << "chronocheck: method " << name << " on " << res.trace.ranks() << " ranks, "
            << res.trace.total_events() << " events\n";
  const auto messages = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, messages, logical);
  const auto outputs = verify::run_all_methods(res.trace, res.offsets, messages, schedule);

  const verify::MethodOutput* selected = nullptr;
  for (const auto& m : outputs) {
    if (m.name == name) selected = &m;
  }
  if (selected == nullptr) {
    std::cerr << "chronocheck: method " << name
              << " was skipped on this fixture (probes unusable)\n";
    return 1;
  }

  verify::VerifyOptions opt;
  opt.clock_condition_slack =
      selected->restores_clock_condition ? 0.0 : cli.get_double("slack", kTimeInfinity);
  const verify::InvariantChecker checker(res.trace, schedule, opt);
  const verify::VerifyReport report = checker.check(selected->ts);
  std::cout << report.summary();

  for (const auto& acc : verify::ground_truth_accuracy(res.trace, outputs)) {
    if (acc.name == name || acc.name == "linear-interpolation" || acc.name == "raw") {
      std::cout << "accuracy " << acc.name << ": rms " << acc.rms_error << " s, max |err| "
                << acc.max_abs_error << " s\n";
    }
  }
  if (!report.ok()) return 1;
  std::cout << "ok: " << name << " passes its invariant audit\n";
  return 0;
}

int run_omp(const Cli& cli) {
  OmpBenchConfig cfg;
  cfg.threads = static_cast<int>(cli.get_int("threads", 4));
  cfg.regions = static_cast<int>(cli.get_int("rounds", 300));
  cfg.seed = cli.get_seed();
  const OmpBenchResult res = run_omp_benchmark(cfg);
  std::cout << "chronocheck: omp CLC differential on " << cfg.threads << " threads, "
            << res.trace.total_events() << " events\n";
  const Placement pl = omp_thread_placement(cfg.node, cfg.threads);
  std::vector<std::string> failures;
  const std::size_t n = verify::cross_check_omp_clc(res.trace, pl, failures);
  std::cout << "omp differential: " << n << " comparison(s), " << failures.size()
            << " contract failure(s)\n";
  for (const auto& f : failures) std::cout << "FAIL " << f << "\n";
  if (!failures.empty()) return 1;
  std::cout << "ok: omp CLC bit-identical to the thread-split CLC and its oracle, audit-clean\n";
  return 0;
}

int run_faults(const Cli& cli) {
  const AppRunResult res = make_fixture(cli);
  const std::uint64_t seed = cli.get_seed();
  int failures = 0;
  for (const verify::FaultClass fault : verify::all_fault_classes()) {
    std::cout << "chronocheck: fault class " << verify::to_string(fault) << "\n";
    try {
      Trace trace = res.trace;
      OffsetStore offsets = res.offsets;
      switch (fault) {
        case verify::FaultClass::ProbeOutlier:
          offsets = verify::with_probe_outliers(offsets, 1e-3, seed);
          break;
        case verify::FaultClass::DuplicateProbes:
          offsets = verify::with_duplicate_probes(offsets);
          break;
        case verify::FaultClass::PoisonedProbes:
          offsets = verify::with_poisoned_probes(offsets);
          break;
        case verify::FaultClass::ClockStep: {
          const auto& events = trace.events(0);
          const Time mid =
              events.empty() ? 0.0 : events[events.size() / 2].local_ts;
          trace = verify::with_clock_step(trace, trace.ranks() / 2, mid, 50e-6);
          break;
        }
        case verify::FaultClass::OneSidedTraffic:
          trace = verify::with_one_sided_traffic(trace);
          break;
        case verify::FaultClass::EmptyRanks:
          trace = verify::with_empty_ranks(trace);
          break;
      }
      const auto report = verify::run_differential_suite(trace, offsets);
      std::cout << report.summary();
      if (!report.ok()) {
        std::cout << "FAIL " << verify::to_string(fault)
                  << ": differential suite reported contract failures\n";
        ++failures;
      }
    } catch (const std::exception& e) {
      std::cout << "FAIL " << verify::to_string(fault)
                << ": pipeline threw instead of reporting: " << e.what() << "\n";
      ++failures;
    }
  }
  if (failures > 0) return 1;
  std::cout << "ok: all fault classes handled gracefully\n";
  return 0;
}

int run_stream(const Cli& cli) {
  const std::string input = cli.get("input", "");
  const Trace trace = input.empty() ? make_fixture(cli).trace : read_trace_v2_file(input);
  std::cout << "chronocheck: windowed streaming CLC vs in-memory on "
            << trace.ranks() << " ranks, " << trace.total_events() << " events\n";
  StreamClcOptions opt;
  opt.emit_batch = 256;
  // The fixture's drift offsets reach hundreds of milliseconds, so their
  // amortization ramps span seconds; a generous window keeps the run
  // divergence-free, which the cross-check demands.
  opt.backward_window = 1e4;
  std::vector<std::string> failures;
  const std::size_t n = verify::cross_check_windowed_clc(
      trace, cli.get("work-dir", "."), opt, failures);
  std::cout << "windowed differential: " << n << " comparison(s), " << failures.size()
            << " contract failure(s)\n";
  for (const auto& f : failures) std::cout << "FAIL " << f << "\n";
  if (!failures.empty()) return 1;
  std::cout << "ok: streaming CLC bit-identical to in-memory CLC\n";
  return 0;
}

int run_one_scenario(const std::string& path, const scenario::ScenarioRunOptions& opts) {
  const scenario::ScenarioSpec spec = scenario::load_scenario_file(path);
  std::cout << "chronocheck: scenario " << spec.name << " (" << path << ")\n";
  if (!spec.description.empty()) std::cout << "  " << spec.description << "\n";
  const scenario::ScenarioOutcome outcome = scenario::run_scenario(spec, opts);
  std::cout << outcome.summary();
  return outcome.ok() ? 0 : 1;
}

// Derives a per-scenario artifact path from the battery's requested output:
// the scenario file's stem lands before the output's extension, so
// `--metrics-out m.json` over drift-storm.json writes m.drift-storm.json.
std::string per_scenario_path(const std::string& requested, const std::string& scenario_path) {
  if (requested.empty()) return requested;
  const auto slash = scenario_path.find_last_of('/');
  std::string stem =
      slash == std::string::npos ? scenario_path : scenario_path.substr(slash + 1);
  if (stem.size() > 5 && stem.ends_with(".json")) stem.resize(stem.size() - 5);
  const auto dot = requested.rfind('.');
  if (dot == std::string::npos) return requested + "." + stem;
  return requested.substr(0, dot) + "." + stem + requested.substr(dot);
}

int run_scenario_battery(const std::string& dir, const scenario::ScenarioRunOptions& opts,
                         obs::ObsSession& obs_session) {
  const std::vector<std::string> files = scenario::list_scenario_files(dir);
  if (files.empty()) {
    std::cerr << "chronocheck: no *.json scenarios in " << dir << "\n";
    return 2;
  }
  // Per-scenario artifacts: the battery owns the output paths from here on
  // (the session's end-of-run write is disarmed) and emits one artifact pair
  // per scenario, with the rings and registry reset in between so no file is
  // cumulative across entries.
  const auto [trace_req, metrics_req] = obs_session.claim_outputs();
  int rc = 0;
  int failed = 0;
  double total_wall = 0.0;
  for (const std::string& path : files) {
    obs::reset();
    const auto t0 = std::chrono::steady_clock::now();
    const int one = run_one_scenario(path, opts);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    total_wall += wall;
    obs_session.write_artifacts(per_scenario_path(trace_req, path),
                                per_scenario_path(metrics_req, path));
    std::cout << "battery: " << path << " wall " << wall << " s\n";
    rc |= one;
    failed += one != 0 ? 1 : 0;
  }
  std::cout << "battery: " << files.size() << " scenario(s), " << failed
            << " failed, total wall " << total_wall << " s\n";
  if (rc == 0) std::cout << "ok: scenario battery clean\n";
  return rc;
}

int write_fixture(const std::string& path, const Cli& cli) {
  const AppRunResult res = make_fixture(cli);
  write_trace_v2_file(res.trace, path);
  std::cout << "chronocheck: wrote " << res.trace.ranks() << "-rank fixture ("
            << res.trace.total_events() << " events) to " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::vector<std::string> unknown = cli.unknown_options(
      {"synthetic", "method", "omp", "faults", "stream", "scenario", "scenario-battery",
       "write-fixture", "ranks", "rounds", "gap", "probe-every", "seed", "threads", "slack",
       "strict", "input", "work-dir", "obs-level", "trace-out", "metrics-out"});
  if (!unknown.empty()) {
    std::cerr << "chronocheck: unknown option";
    for (const std::string& name : unknown) std::cerr << " --" << name;
    std::cerr << "\n";
    return 2;
  }
  try {
    chronosync::obs::ObsSession obs_session(cli, "chronocheck");
    int rc = 0;
    bool ran = false;
    if (cli.has("synthetic")) {
      rc |= run_synthetic(cli);
      ran = true;
    }
    if (cli.has("method")) {
      rc |= run_method(cli);
      ran = true;
    }
    if (cli.has("omp")) {
      rc |= run_omp(cli);
      ran = true;
    }
    if (cli.has("faults")) {
      rc |= run_faults(cli);
      ran = true;
    }
    if (cli.has("stream")) {
      rc |= run_stream(cli);
      ran = true;
    }
    scenario::ScenarioRunOptions scenario_opts;
    scenario_opts.work_dir = cli.get("work-dir", ".");
    if (cli.has("scenario")) {
      rc |= run_one_scenario(cli.get("scenario", ""), scenario_opts);
      ran = true;
    }
    if (cli.has("scenario-battery")) {
      rc |= run_scenario_battery(cli.get("scenario-battery", ""), scenario_opts, obs_session);
      ran = true;
    }
    if (cli.has("write-fixture")) {
      rc |= write_fixture(cli.get("write-fixture", ""), cli);
      ran = true;
    }
    for (const auto& path : cli.positional()) {
      rc |= audit_file(path, cli);
      ran = true;
    }
    if (!ran) {
      std::cerr << "usage: chronocheck <trace-file> [--slack S] [--strict]\n"
                   "       chronocheck --synthetic [--ranks N --rounds R --seed S]\n"
                   "       chronocheck --method <name> [--ranks N --rounds R --seed S "
                   "--probe-every K --slack S]\n"
                   "       chronocheck --omp [--threads T --rounds R --seed S]\n"
                   "       chronocheck --faults [--ranks N --rounds R --seed S]\n"
                   "       chronocheck --stream [--ranks N --rounds R --seed S "
                   "--work-dir D --input F]\n"
                   "       chronocheck --scenario <file> [--work-dir D]\n"
                   "       chronocheck --scenario-battery <dir> [--work-dir D]\n"
                   "       chronocheck --write-fixture <file> [--ranks N --rounds R "
                   "--seed S]\n";
      return 2;
    }
    obs_session.finish();
    return rc;
  } catch (const TraceIoError& e) {
    std::cerr << "chronocheck: " << e.what() << "\n";
    return 3;
  } catch (const scenario::ScenarioError& e) {
    std::cerr << "chronocheck: " << e.what() << "\n";
    return 4;
  } catch (const std::exception& e) {
    std::cerr << "chronocheck: " << e.what() << "\n";
    return 2;
  }
}
