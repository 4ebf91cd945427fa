// Differential cross-checks across the correction stack.
//
// Independent implementations that promise the same answer are the cheapest
// oracle this codebase has: the CLC driver and its replay-order oracle must
// agree bit-for-bit, the two clock-condition scanners (CSR schedule scan,
// out-of-core v2 stream scan) must equal the message-list oracle field for
// field, and the interpolation family collapses to pairwise-identical
// corrections on degenerate inputs.  This module runs every correction method on one trace,
// compares all outputs pairwise, and checks the declared equivalences — a
// divergence above tolerance is a bug in one of the implementations, not a
// property of the data.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "measure/offset_probe.hpp"
#include "sync/clc_stream.hpp"
#include "sync/replay.hpp"
#include "topology/pinning.hpp"
#include "trace/trace.hpp"
#include "verify/invariants.hpp"

namespace chronosync::verify {

/// One correction method's output on the shared trace.
struct MethodOutput {
  std::string name;
  TimestampArray ts;
  /// True for methods contracted to leave zero clock-condition violations
  /// (the CLC family); their outputs are audited with zero slack.
  bool restores_clock_condition = false;
};

/// True when `offsets` holds two or more samples for every rank of `trace`:
/// the precondition of the probe-based corrections.
bool probes_usable(const Trace& trace, const OffsetStore& offsets);

/// Runs every available correction method on one trace: offset alignment,
/// linear/piecewise interpolation, Kalman drift estimation, the three
/// error-estimation variants, and the CLC over the interpolated input — once
/// through controlled_logical_clock ("interpolation+clc") and once through the
/// replay-order oracle ("interpolation+clc-replay").  Methods whose preconditions the fixture cannot meet (e.g. no
/// offset store) are skipped.
std::vector<MethodOutput> run_all_methods(const Trace& trace, const OffsetStore& offsets,
                                          const std::vector<MessageRecord>& messages,
                                          const ReplaySchedule& schedule);

/// Every method name run_all_methods can emit, in emission order.  This is
/// the shared vocabulary for `chronocheck --method` and the scenario layer's
/// accuracy expectations; an unknown name there is a schema error, not a
/// silently-skipped comparison.
const std::vector<std::string>& all_method_names();

/// Pairwise divergence between two timestamp arrays of identical shape.
struct PairDivergence {
  std::string method_a;
  std::string method_b;
  std::size_t events = 0;
  std::size_t above_tolerance = 0;  ///< events where |a - b| > 1e-9 s (0 s if must_match)
  double max_abs_diff = 0.0;
  EventRef worst{};                 ///< event attaining max_abs_diff
  /// True when the pair is contracted to agree within tolerance (e.g. the CLC
  /// driver vs its replay-order oracle at tolerance 0) — then
  /// above_tolerance > 0 is a bug.
  bool must_match = false;
};

/// Accuracy of one method's output against the simulator's ground truth: the
/// master clock (rank 0) read at each event's true timestamp is what a
/// perfect correction would produce, so `error = corrected - master(true_ts)`.
/// Only available on simulated traces (mpisim records true_ts).
struct MethodAccuracy {
  std::string name;
  std::size_t events = 0;
  double rms_error = 0.0;      ///< sqrt(mean(error^2)) over all events
  double max_abs_error = 0.0;
};

/// Computes per-method ground-truth accuracy.  The master timeline is the
/// piecewise-linear map true_ts -> local_ts through rank 0's events; returns
/// empty (with a warning) when rank 0 has fewer than two distinct true
/// timestamps to anchor it.
std::vector<MethodAccuracy> ground_truth_accuracy(const Trace& trace,
                                                  const std::vector<MethodOutput>& outputs);

struct DifferentialReport {
  std::vector<PairDivergence> pairs;      ///< all method pairs, audit order
  std::vector<MethodAccuracy> accuracy;   ///< vs ground truth, method order
  std::vector<std::string> failures;      ///< human-readable contract breaches

  bool ok() const { return failures.empty(); }
  std::string summary() const;
};

/// Compares every pair of method outputs.  Informational pairs count the
/// events that differ by more than 1e-9 s; must-match pairs (identical `name`
/// prefix rules are not used — the caller's contract list below is) are
/// compared exactly.
DifferentialReport compare_methods(const Trace& trace,
                                   const std::vector<MethodOutput>& outputs);

/// Cross-checks the clock-condition scanners on the trace's local timestamps
/// against the message-list oracle (clock_condition_oracle.hpp, over freshly
/// re-matched messages): the CSR scan over `schedule`, the streaming v2 scan
/// over an in-memory serialization (rank-major order) and the file scan over
/// a v2 file in a private ScratchDir under the system temporary directory
/// (frontier order).  Appends any field mismatch to `failures` and returns
/// the number of comparisons made.
std::size_t cross_check_scans(const Trace& trace, const ReplaySchedule& schedule,
                              std::vector<std::string>& failures);

/// Cross-checks the out-of-core windowed streaming CLC against the in-memory
/// one on the same trace: serializes the trace as a v2 file under `work_dir`,
/// runs clc_stream_file on it, and demands a *bit-identical* corrected trace
/// and jump statistics, which the streaming run promises whenever it reports
/// zero divergences.  Any non-zero divergence counter (ramp_clamped,
/// horizon_dropped, forced, repeated_ids, kind_conflicts) is itself a
/// failure: the fixture
/// and options must keep them zero.  true_ts and all non-timestamp fields
/// must survive the round-trip untouched.  Appends contract breaches to `failures` and
/// returns the number of comparisons made.  The temporary files live in a
/// private ScratchDir under `work_dir`, so concurrent cross-checks may share
/// one `work_dir`; the directory is removed on return.
std::size_t cross_check_windowed_clc(const Trace& trace, const std::string& work_dir,
                                     const StreamClcOptions& options,
                                     std::vector<std::string>& failures);

/// Cross-checks the OpenMP CLC backend on a POMP trace:
///  * the merged omp_controlled_logical_clock output must equal, bit for bit,
///    controlled_logical_clock run directly on the thread-split trace (this
///    pins the split/merge cursor bookkeeping);
///  * the replay-order oracle (clc_oracle.hpp) on the same thread schedule
///    must agree with that driver bit for bit, in timestamps and jump
///    statistics;
///  * the corrected thread-split timestamps must pass a zero-slack invariant
///    audit against the POMP happened-before edges.
/// Appends contract breaches to `failures`, returns comparisons made.
std::size_t cross_check_omp_clc(const Trace& omp_trace, const Placement& thread_placement,
                                std::vector<std::string>& failures);

/// The full differential suite: run_all_methods + compare_methods +
/// cross_check_scans + an invariant audit of every CLC output (zero slack);
/// the non-exact methods are audited for finiteness and local order only.
DifferentialReport run_differential_suite(const Trace& trace, const OffsetStore& offsets);

}  // namespace chronosync::verify
