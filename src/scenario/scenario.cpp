#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "benchkit/json.hpp"
#include "verify/differential.hpp"

namespace chronosync::scenario {

using benchkit::JsonValue;

std::string to_string(ScenarioErrorKind k) {
  switch (k) {
    case ScenarioErrorKind::Io: return "io";
    case ScenarioErrorKind::Parse: return "parse";
    case ScenarioErrorKind::Schema: return "schema";
  }
  return "?";
}

namespace {

[[noreturn]] void schema_fail(const std::string& origin, const std::string& what) {
  throw ScenarioError(ScenarioErrorKind::Schema, origin + ": " + what);
}

/// Strict object cursor: every member must be consumed by exactly one typed
/// accessor; finish() rejects whatever is left over, so a typo'd or unknown
/// key can never be silently ignored.
class ObjectReader {
 public:
  ObjectReader(const JsonValue& v, std::string origin, std::string path)
      : origin_(std::move(origin)), path_(std::move(path)) {
    if (!v.is_object()) schema_fail(origin_, path_ + " must be an object");
    for (const auto& [key, value] : v.members()) members_.emplace_back(key, &value);
  }

  const JsonValue* take(const std::string& key) {
    for (auto& [name, value] : members_) {
      if (name == key && value != nullptr) {
        const JsonValue* v = value;
        value = nullptr;
        return v;
      }
    }
    return nullptr;
  }

  double number(const std::string& key, double fallback) {
    const JsonValue* v = take(key);
    if (v == nullptr) return fallback;
    if (!v->is_number() || !std::isfinite(v->as_number())) {
      schema_fail(origin_, member(key) + " must be a finite number");
    }
    return v->as_number();
  }

  std::int64_t integer(const std::string& key, std::int64_t fallback) {
    const JsonValue* v = take(key);
    if (v == nullptr) return fallback;
    if (!v->is_number()) schema_fail(origin_, member(key) + " must be an integer");
    const double d = v->as_number();
    if (!std::isfinite(d) || d != std::floor(d) || std::abs(d) > 9.007199254740992e15) {
      schema_fail(origin_, member(key) + " must be an integer");
    }
    return static_cast<std::int64_t>(d);
  }

  bool boolean(const std::string& key, bool fallback) {
    const JsonValue* v = take(key);
    if (v == nullptr) return fallback;
    if (v->type() != JsonValue::Type::Bool) {
      schema_fail(origin_, member(key) + " must be a boolean");
    }
    return v->as_bool();
  }

  std::string string(const std::string& key, const std::string& fallback) {
    const JsonValue* v = take(key);
    if (v == nullptr) return fallback;
    if (!v->is_string()) schema_fail(origin_, member(key) + " must be a string");
    return v->as_string();
  }

  /// Array member of integers (e.g. rank or node lists); empty when absent.
  std::vector<std::int64_t> int_list(const std::string& key) {
    const JsonValue* v = take(key);
    std::vector<std::int64_t> out;
    if (v == nullptr) return out;
    if (!v->is_array()) schema_fail(origin_, member(key) + " must be an array");
    for (const JsonValue& item : v->items()) {
      const double d = item.is_number() ? item.as_number() : 0.0;
      if (!item.is_number() || !std::isfinite(d) || d != std::floor(d) ||
          std::abs(d) > 9.007199254740992e15) {
        schema_fail(origin_, member(key) + " must contain only integers");
      }
      out.push_back(static_cast<std::int64_t>(d));
    }
    return out;
  }

  const JsonValue* object(const std::string& key) {
    const JsonValue* v = take(key);
    if (v == nullptr) return nullptr;
    if (!v->is_object()) schema_fail(origin_, member(key) + " must be an object");
    return v;
  }

  const JsonValue* array(const std::string& key) {
    const JsonValue* v = take(key);
    if (v == nullptr) return nullptr;
    if (!v->is_array()) schema_fail(origin_, member(key) + " must be an array");
    return v;
  }

  void finish() {
    for (const auto& [name, value] : members_) {
      if (value != nullptr) schema_fail(origin_, "unknown key " + member(name));
    }
  }

  std::string member(const std::string& key) const {
    return path_.empty() ? "\"" + key + "\"" : path_ + ".\"" + key + "\"";
  }
  const std::string& path() const { return path_; }
  const std::string& origin() const { return origin_; }

 private:
  std::string origin_;
  std::string path_;
  std::vector<std::pair<std::string, const JsonValue*>> members_;
};

void require(bool ok, const std::string& origin, const std::string& what) {
  if (!ok) schema_fail(origin, what);
}

WorkloadSpec parse_workload(const JsonValue& v, const std::string& origin) {
  WorkloadSpec w;
  ObjectReader r(v, origin, "workload");
  const std::string kind = r.string("kind", "sweep");
  if (kind == "sweep") {
    w.kind = WorkloadKind::Sweep;
  } else if (kind == "dynamic") {
    w.kind = WorkloadKind::Dynamic;
  } else {
    schema_fail(origin, "workload.\"kind\" must be \"sweep\" or \"dynamic\"");
  }
  w.ranks = static_cast<int>(r.integer("ranks", w.ranks));
  w.rounds = static_cast<int>(r.integer("rounds", w.rounds));
  w.bytes = static_cast<std::uint32_t>(r.integer("bytes", w.bytes));
  w.gap_mean = r.number("gap_mean", w.gap_mean);
  w.gap_spread = r.number("gap_spread", w.gap_spread);
  w.collective_every = static_cast<int>(r.integer("collective_every", w.collective_every));
  w.probe_pings = static_cast<int>(r.integer("probe_pings", w.probe_pings));
  w.probe_every = static_cast<int>(r.integer("probe_every", w.probe_every));
  w.pinning = r.string("pinning", w.pinning);
  require(w.pinning == "inter-node" || w.pinning == "block", origin,
          "workload.\"pinning\" must be \"inter-node\" or \"block\"");
  require(w.ranks >= 2, origin, "workload.\"ranks\" must be >= 2");
  require(w.rounds >= 1, origin, "workload.\"rounds\" must be >= 1");
  require(w.gap_mean > 0.0, origin, "workload.\"gap_mean\" must be > 0");
  require(w.gap_spread >= 0.0 && w.gap_spread < 1.0, origin,
          "workload.\"gap_spread\" must lie in [0, 1)");
  require(w.collective_every >= 0, origin, "workload.\"collective_every\" must be >= 0");
  require(w.probe_pings >= 1, origin, "workload.\"probe_pings\" must be >= 1");
  require(w.probe_every >= 0, origin, "workload.\"probe_every\" must be >= 0");

  if (const JsonValue* e = r.object("elephant")) {
    require(w.kind == WorkloadKind::Dynamic, origin,
            "workload.\"elephant\" requires the dynamic workload");
    ObjectReader er(*e, origin, "workload.elephant");
    w.elephant.bytes = static_cast<std::uint32_t>(er.integer("bytes", w.elephant.bytes));
    w.elephant.probability = er.number("probability", w.elephant.probability);
    for (const std::int64_t rank : er.int_list("ranks")) {
      require(rank >= 0 && rank < w.ranks, origin,
              "workload.elephant.\"ranks\" entries must name valid ranks");
      w.elephant.ranks.push_back(static_cast<Rank>(rank));
    }
    require(w.elephant.probability >= 0.0 && w.elephant.probability <= 1.0, origin,
            "workload.elephant.\"probability\" must lie in [0, 1]");
    er.finish();
  }

  if (const JsonValue* m = r.array("membership")) {
    require(w.kind == WorkloadKind::Dynamic, origin,
            "workload.\"membership\" requires the dynamic workload");
    for (const JsonValue& item : m->items()) {
      ObjectReader mr(item, origin, "workload.membership[]");
      MembershipWindow win;
      win.rank = static_cast<Rank>(mr.integer("rank", -1));
      win.join_round = static_cast<int>(mr.integer("join_round", 0));
      win.leave_round = static_cast<int>(mr.integer("leave_round", win.leave_round));
      mr.finish();
      require(win.rank >= 0 && win.rank < w.ranks, origin,
              "workload.membership[].\"rank\" must name a valid rank");
      require(win.join_round >= 0, origin,
              "workload.membership[].\"join_round\" must be >= 0");
      require(win.leave_round > win.join_round, origin,
              "workload.membership[] window must be non-empty");
      w.membership.push_back(win);
    }
  }
  r.finish();
  return w;
}

ClockSpec parse_clock(const JsonValue& v, const std::string& origin, int ranks) {
  ClockSpec c;
  ObjectReader r(v, origin, "clock");
  c.timer = r.string("timer", c.timer);
  if (const JsonValue* o = r.object("overrides")) {
    ObjectReader orr(*o, origin, "clock.overrides");
    c.base_drift_max = orr.number("base_drift_max", c.base_drift_max);
    c.wander_sigma = orr.number("wander_sigma", c.wander_sigma);
    c.wander_interval = orr.number("wander_interval", c.wander_interval);
    c.wander_clamp = orr.number("wander_clamp", c.wander_clamp);
    c.node_offset_sigma = orr.number("node_offset_sigma", c.node_offset_sigma);
    orr.finish();
  }
  if (const JsonValue* storms = r.array("storms")) {
    for (const JsonValue& item : storms->items()) {
      ObjectReader sr(item, origin, "clock.storms[]");
      DriftStormSpec storm;
      for (const std::int64_t node : sr.int_list("nodes")) {
        require(node >= 0, origin, "clock.storms[].\"nodes\" must be >= 0");
        storm.nodes.push_back(static_cast<int>(node));
      }
      storm.start_fraction = sr.number("start_fraction", storm.start_fraction);
      storm.duration_fraction = sr.number("duration_fraction", storm.duration_fraction);
      storm.extra_ppm = sr.number("extra_ppm", storm.extra_ppm);
      sr.finish();
      require(!storm.nodes.empty(), origin, "clock.storms[] needs a \"nodes\" list");
      require(storm.start_fraction >= 0.0 && storm.start_fraction <= 1.0, origin,
              "clock.storms[].\"start_fraction\" must lie in [0, 1]");
      require(storm.duration_fraction >= 0.0 && storm.duration_fraction <= 1.0, origin,
              "clock.storms[].\"duration_fraction\" must lie in [0, 1]");
      require(storm.extra_ppm > -1e6, origin,
              "clock.storms[].\"extra_ppm\" must stay above -10^6 (rate > -1)");
      c.storms.push_back(std::move(storm));
    }
  }
  if (const JsonValue* steps = r.array("steps")) {
    for (const JsonValue& item : steps->items()) {
      ObjectReader sr(item, origin, "clock.steps[]");
      ClockStepSpec step;
      step.rank = static_cast<Rank>(sr.integer("rank", -1));
      step.at_fraction = sr.number("at_fraction", step.at_fraction);
      step.step = sr.number("step", step.step);
      sr.finish();
      require(step.rank >= 0 && step.rank < ranks, origin,
              "clock.steps[].\"rank\" must name a valid rank");
      require(step.at_fraction >= 0.0 && step.at_fraction <= 1.0, origin,
              "clock.steps[].\"at_fraction\" must lie in [0, 1]");
      require(step.step >= 0.0, origin,
              "clock.steps[].\"step\" must be >= 0 (local monotonicity)");
      c.steps.push_back(step);
    }
  }
  for (const std::int64_t rank : r.int_list("leap_second_ranks")) {
    require(rank >= 0 && rank < ranks, origin,
            "clock.\"leap_second_ranks\" entries must name valid ranks");
    c.leap_second_ranks.push_back(static_cast<Rank>(rank));
  }
  r.finish();
  return c;
}

NetworkSpec parse_network(const JsonValue& v, const std::string& origin) {
  NetworkSpec n;
  ObjectReader r(v, origin, "network");
  n.asymmetry_extra = r.number("asymmetry_extra", n.asymmetry_extra);
  n.varying_amplitude = r.number("varying_amplitude", n.varying_amplitude);
  n.varying_period = r.number("varying_period", n.varying_period);
  r.finish();
  require(n.asymmetry_extra >= 0.0, origin, "network.\"asymmetry_extra\" must be >= 0");
  require(n.varying_amplitude >= 0.0, origin,
          "network.\"varying_amplitude\" must be >= 0");
  require(n.varying_period > 0.0, origin, "network.\"varying_period\" must be > 0");
  return n;
}

bool known_method_name(const std::string& name) {
  const auto& names = verify::all_method_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

ExpectSpec parse_expect(const JsonValue& v, const std::string& origin) {
  ExpectSpec e;
  ObjectReader r(v, origin, "expect");
  e.raw_violations_min = r.integer("raw_violations_min", e.raw_violations_min);
  e.raw_violations_max = r.integer("raw_violations_max", e.raw_violations_max);
  e.structural_clean = r.boolean("structural_clean", e.structural_clean);
  e.differential_clean = r.boolean("differential_clean", e.differential_clean);
  e.clc_repairs_min = r.integer("clc_repairs_min", e.clc_repairs_min);
  e.clc_clean_audit = r.boolean("clc_clean_audit", e.clc_clean_audit);
  e.stream_identical = r.boolean("stream_identical", e.stream_identical);
  if (const JsonValue* acc = r.array("accuracy")) {
    for (const JsonValue& item : acc->items()) {
      ObjectReader ar(item, origin, "expect.accuracy[]");
      AccuracyExpectSpec a;
      a.method = ar.string("method", "");
      a.reference = ar.string("reference", "");
      a.max_rms_ratio = ar.number("max_rms_ratio", a.max_rms_ratio);
      a.rms_slack = ar.number("rms_slack", a.rms_slack);
      ar.finish();
      // The method vocabulary is closed: a typo'd name would otherwise make
      // the expectation silently vacuous.
      require(known_method_name(a.method), origin,
              "expect.accuracy[].\"method\" must name a known correction method");
      require(known_method_name(a.reference), origin,
              "expect.accuracy[].\"reference\" must name a known correction method");
      require(a.method != a.reference, origin,
              "expect.accuracy[] method and reference must differ");
      require(a.max_rms_ratio > 0.0, origin,
              "expect.accuracy[].\"max_rms_ratio\" must be > 0");
      require(a.rms_slack >= 0.0, origin, "expect.accuracy[].\"rms_slack\" must be >= 0");
      e.accuracy.push_back(std::move(a));
    }
  }
  r.finish();
  require(e.raw_violations_min >= -1, origin, "expect.\"raw_violations_min\" must be >= -1");
  require(e.raw_violations_max >= -1, origin, "expect.\"raw_violations_max\" must be >= -1");
  require(e.clc_repairs_min >= -1, origin, "expect.\"clc_repairs_min\" must be >= -1");
  if (e.raw_violations_min >= 0 && e.raw_violations_max >= 0) {
    require(e.raw_violations_min <= e.raw_violations_max, origin,
            "expect raw-violation bounds must be ordered");
  }
  return e;
}

}  // namespace

ScenarioSpec parse_scenario(const std::string& text, const std::string& origin) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(text);
  } catch (const std::exception& e) {
    throw ScenarioError(ScenarioErrorKind::Parse, origin + ": " + e.what());
  }

  ScenarioSpec spec;
  ObjectReader r(doc, origin, "");
  spec.name = r.string("name", "");
  require(!spec.name.empty(), origin, "scenario needs a non-empty \"name\"");
  spec.description = r.string("description", "");
  const std::int64_t seed = r.integer("seed", 42);
  require(seed >= 0, origin, "\"seed\" must be >= 0");
  spec.seed = static_cast<std::uint64_t>(seed);
  if (const JsonValue* w = r.object("workload")) spec.workload = parse_workload(*w, origin);
  if (const JsonValue* c = r.object("clock")) {
    spec.clock = parse_clock(*c, origin, spec.workload.ranks);
  }
  if (const JsonValue* n = r.object("network")) spec.network = parse_network(*n, origin);
  if (const JsonValue* e = r.object("expect")) spec.expect = parse_expect(*e, origin);
  r.finish();
  return spec;
}

ScenarioSpec load_scenario_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.is_open()) {
    throw ScenarioError(ScenarioErrorKind::Io, "cannot open scenario file: " + path);
  }
  std::ostringstream text;
  text << f.rdbuf();
  if (f.bad()) {
    throw ScenarioError(ScenarioErrorKind::Io, "cannot read scenario file: " + path);
  }
  return parse_scenario(text.str(), path);
}

std::vector<std::string> list_scenario_files(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    throw ScenarioError(ScenarioErrorKind::Io,
                        "cannot list scenario directory " + dir + ": " + ec.message());
  }
  for (const fs::directory_entry& entry : it) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace chronosync::scenario
