// End-to-end scenario execution: simulate, injure, correct, verify, judge.
//
// run_scenario() drives one ScenarioSpec through the entire correction stack:
//
//   1. build the job (placement, timer preset + overrides, network shaper)
//      and run the configured workload (sweep or dynamic membership);
//   2. apply the post-run clock faults (drift storms, NTP steps, leap
//      seconds) to the recorded trace — exactly what a trace collected on
//      faulty clocks would look like, probes included;
//   3. audit the raw trace (paper invariants, Eq. 1 violation census);
//   4. run every correction method + the pairwise differential suite + both
//      clock-condition scanners against their oracle
//      (verify::run_differential_suite);
//   5. run the CLC on the interpolated input and audit its output with zero
//      slack (Eq. 1 exact, amortization never moves events backward);
//   6. cross-check the out-of-core windowed streaming CLC bit-for-bit;
//   7. evaluate the scenario's declared ExpectSpec against the measured
//      outcome and report every breach as a typed failure line.
//
// The outcome carries the measured facts either way, so EXPERIMENTS.md tables
// and the chronocheck battery print what actually happened, not just pass/fail.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "verify/differential.hpp"

namespace chronosync::scenario {

struct ScenarioRunOptions {
  std::string work_dir = ".";  ///< scratch space for the streaming round-trip
};

struct ScenarioOutcome {
  std::string name;
  std::size_t events = 0;
  std::size_t raw_violations = 0;        ///< Eq. 1 breaches in the raw trace
  std::size_t raw_structural = 0;        ///< non-finite / order breaches (raw)
  Duration raw_worst = 0.0;              ///< worst Eq. 1 breach in seconds
  bool differential_clean = false;       ///< full suite contract-clean
  std::size_t clc_repairs = 0;           ///< receive events the CLC moved
  std::size_t clc_audit_violations = 0;  ///< zero-slack audit of CLC output
  bool stream_identical = false;         ///< windowed CLC bit-identical
  /// Ground-truth accuracy of every method the differential suite ran (RMS
  /// vs the master clock at each event's true timestamp); feeds the
  /// expect.accuracy[] races and the EXPERIMENTS.md tables.
  std::vector<verify::MethodAccuracy> accuracy;
  std::vector<std::string> failures;     ///< expectation breaches (empty = ok)

  bool ok() const { return failures.empty(); }
  /// One line per measured fact plus every failure, chronocheck-style.
  std::string summary() const;
};

/// Runs one scenario end-to-end and evaluates its declared expectations.
/// Throws only on infrastructure faults (ScenarioError, TraceIoError);
/// expectation breaches and contract failures land in `failures`.
ScenarioOutcome run_scenario(const ScenarioSpec& spec, const ScenarioRunOptions& options = {});

}  // namespace chronosync::scenario
