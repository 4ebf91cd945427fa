// Config-file-driven adversarial scenarios.
//
// A scenario is one named, committed JSON file that composes the failure
// modes production clocks and networks actually exhibit — correlated
// DVFS/thermal drift storms hitting whole nodes, NTP steps and leap-second
// events, random-walk drift, asymmetric and time-varying link latencies,
// heavy-tailed multi-tenant traffic, ranks joining and leaving mid-run — on
// top of the existing clockmodel/topology/mpisim engines, and declares the
// outcome the correction stack must deliver on it ("CLC repairs every Eq. 1
// violation", "streaming == in-memory bit-for-bit").  The committed files
// under scenarios/ are the repository's enumerable answer to "what inputs is
// the correction stack actually guaranteed on?": every one of them runs as a
// `ctest -L scenario` case and in the scenario-battery CI job.  Every
// scenario also cross-checks the windowed streaming CLC against the in-memory
// one, with fixed divergence-free bounds (runner.cpp); the schema has no
// setting for it.
//
// Parsing is strict: unknown keys, wrong types, and out-of-range values all
// raise a typed ScenarioError, never a crash — the config parser is fuzzed by
// the same deterministic mutation battery as the trace readers.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace chronosync::scenario {

enum class ScenarioErrorKind {
  Io,      ///< file missing/unreadable
  Parse,   ///< not valid JSON
  Schema,  ///< valid JSON that is not a valid scenario (keys/types/ranges)
};

std::string to_string(ScenarioErrorKind k);

/// Every failure mode of scenario loading raises exactly this type.
class ScenarioError : public std::runtime_error {
 public:
  ScenarioError(ScenarioErrorKind kind, const std::string& message)
      : std::runtime_error("scenario error [" + to_string(kind) + "]: " + message),
        kind_(kind) {}

  ScenarioErrorKind kind() const { return kind_; }

 private:
  ScenarioErrorKind kind_;
};

/// One rank's application-level membership window: the rank participates in
/// rounds [join_round, leave_round).  Outside its window the process exists
/// (its clock drifts, it burns compute time) but exchanges no traffic — the
/// ad-hoc clock-network setting.
struct MembershipWindow {
  Rank rank = 0;
  int join_round = 0;
  int leave_round = 1 << 30;
};

/// Heavy-tailed multi-tenant traffic: `ranks` always send elephant-sized
/// messages; every other sender flips a (shared-stream) coin per round.
struct ElephantSpec {
  std::uint32_t bytes = 256 * 1024;  ///< elephant payload (>= rendezvous)
  std::vector<Rank> ranks;           ///< dedicated elephant senders
  double probability = 0.0;          ///< per-round elephant chance elsewhere
};

enum class WorkloadKind {
  Sweep,    ///< the existing randomized-shift sweep (static membership)
  Dynamic,  ///< shift traffic over the round's active set, elephants allowed
};

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::Sweep;
  int ranks = 8;
  int rounds = 400;
  std::uint32_t bytes = 512;
  Duration gap_mean = 3.0;     ///< long gaps let drift accumulate (Eq. 1 bites)
  double gap_spread = 0.3;
  int collective_every = 50;   ///< 0 = no collectives
  int probe_pings = 10;
  int probe_every = 0;         ///< >0: extra offset probe batch every k rounds
  std::string pinning = "inter-node";  ///< "inter-node" or "block"
  ElephantSpec elephant;
  std::vector<MembershipWindow> membership;
};

/// Correlated storm hitting whole nodes (see verify::with_drift_storm).
struct DriftStormSpec {
  std::vector<int> nodes;
  double start_fraction = 0.25;
  double duration_fraction = 0.5;
  double extra_ppm = 800.0;
};

/// Abrupt clock step (NTP step; a leap second is step = 1.0 s).
struct ClockStepSpec {
  Rank rank = 0;
  double at_fraction = 0.5;  ///< position inside the rank's event span
  Duration step = 50 * units::us;
};

struct ClockSpec {
  std::string timer = "intel-tsc";  ///< timer_specs::by_name preset
  // Optional overrides of the preset (NaN/negative sentinel = keep preset).
  double base_drift_max = -1.0;
  double wander_sigma = -1.0;
  Duration wander_interval = -1.0;
  double wander_clamp = -1.0;
  Duration node_offset_sigma = -1.0;
  std::vector<DriftStormSpec> storms;
  std::vector<ClockStepSpec> steps;
  std::vector<Rank> leap_second_ranks;  ///< 1.0 s step at 60% of the span
};

struct NetworkSpec {
  /// Extra one-way delay (s) on every dst < src link: asymmetric routes.
  Duration asymmetry_extra = 0.0;
  /// Peak of a sinusoidal all-links extra delay (s): time-varying congestion.
  Duration varying_amplitude = 0.0;
  Duration varying_period = 20.0;
};

/// One declared accuracy race: `method`'s RMS error vs the simulator's
/// ground-truth master time must satisfy
///
///     rms(method) <= max_rms_ratio * rms(reference) + rms_slack
///
/// so max_rms_ratio < 1 demands a strict win and max_rms_ratio ~ 1 with a
/// small slack demands parity.  Both names must come from
/// verify::all_method_names(); anything else is a Schema error.
struct AccuracyExpectSpec {
  std::string method;
  std::string reference;
  double max_rms_ratio = 1.0;
  double rms_slack = 0.0;  ///< absolute slack in seconds
};

/// Declared expected outcomes; -1 disables a bound.
struct ExpectSpec {
  std::int64_t raw_violations_min = -1;  ///< raw trace must violate Eq. 1 >= n times
  std::int64_t raw_violations_max = -1;  ///< ... and at most n times
  bool structural_clean = true;     ///< raw trace: finite + rank-local order
  bool differential_clean = true;   ///< full differential suite contract-clean
  std::int64_t clc_repairs_min = -1;     ///< CLC must repair >= n receive events
  bool clc_clean_audit = true;      ///< CLC output: Eq. 1 exact + amortization bound
  bool stream_identical = true;     ///< windowed streaming CLC bit-identical
  std::vector<AccuracyExpectSpec> accuracy;  ///< ground-truth accuracy races
};

struct ScenarioSpec {
  std::string name;
  std::string description;
  std::uint64_t seed = 42;
  WorkloadSpec workload;
  ClockSpec clock;
  NetworkSpec network;
  ExpectSpec expect;
};

/// Parses one scenario document.  `origin` names the source (file path) in
/// error messages.  Throws ScenarioError{Parse} on malformed JSON and
/// ScenarioError{Schema} on unknown keys, wrong types, or invalid values.
ScenarioSpec parse_scenario(const std::string& text, const std::string& origin = "<inline>");

/// Reads and parses a scenario file.  Throws ScenarioError{Io} when the file
/// cannot be opened or read.
ScenarioSpec load_scenario_file(const std::string& path);

/// Paths of every `*.json` directly inside `dir`, sorted by name (the
/// committed-battery enumeration).  Throws ScenarioError{Io} if `dir` cannot
/// be listed.
std::vector<std::string> list_scenario_files(const std::string& dir);

}  // namespace chronosync::scenario
