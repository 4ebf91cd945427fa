// chronoscope: offline analyzer/validator for the observability artifacts
// written by the obs layer (--trace-out / --metrics-out).
//
//   chronoscope trace.json              summary: top spans by self time,
//                                       per-thread utilization, counter stats
//   chronoscope --check trace.json      validate only (for CI): exits 0 when
//                                       the file parses, every B has a
//                                       matching E, and timestamps are sane
//   chronoscope --top N trace.json      rows in the span table (default 15)
//   chronoscope --phases trace.json     per-phase breakdown under the
//                                       dominant root span: wall, % of root,
//                                       self time, and the unattributed gap
//                                       (critical-path attribution for the
//                                       serial scenario pipeline)
//   chronoscope --metrics m.json        validate a chronosync-metrics-v1
//                                       snapshot: schema marker, finite
//                                       values, quantile monotonicity
//                                       (p50 <= p90 <= p99 <= p999 within
//                                       [min, max])
//   chronoscope --diff A B [--threshold PCT]
//                                       compare two artifacts (both metrics
//                                       snapshots or both traces); exits 1
//                                       when any gated value regressed by
//                                       more than PCT percent (default 25):
//                                       quantile keys for metrics, per-span
//                                       wall time for traces
//   chronoscope --bench-gate <records> | <baseline> <current>
//                                       validate benchkit records; given two
//                                       files, gate the second on the first
//
// Validation is strict in every mode: a malformed file fails the run (exit
// 1; usage errors, an unknown option among them, exit 2).  The summary relies
// on well-nested per-thread B/E sequences in array order, which is what the
// obs writer guarantees.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "benchkit/json.hpp"
#include "benchkit/reporter.hpp"
#include "common/cli.hpp"
#include "common/statistics.hpp"
#include "common/table.hpp"
#include "obs/export.hpp"

namespace {

using chronosync::AsciiTable;
using chronosync::RunningStats;
using chronosync::benchkit::BenchRecord;
using chronosync::benchkit::JsonValue;

struct SpanAgg {
  std::uint64_t count = 0;
  double total_us = 0.0;  // wall time inside the span, children included
  double self_us = 0.0;   // total minus directly nested children
};

struct ChildAgg {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  double first_ts = 0.0;  // earliest begin, orders phases by pipeline position
  bool seen = false;
};

struct ThreadAgg {
  std::string name;
  double first_ts = 0.0;
  double last_ts = 0.0;
  double busy_us = 0.0;  // covered by depth-0 spans
  std::uint64_t spans = 0;
  bool saw_event = false;
};

struct CounterAgg {
  RunningStats stats;
  double last = 0.0;
};

struct OpenSpan {
  std::string name;
  double ts = 0.0;
  double child_us = 0.0;
};

struct Analysis {
  std::map<std::string, SpanAgg> spans;
  std::map<std::string, SpanAgg> roots;  // depth-0 spans only
  std::map<std::string, std::map<std::string, ChildAgg>> children;  // parent -> direct child
  std::map<int, ThreadAgg> threads;
  std::map<std::string, CounterAgg> counters;
  std::uint64_t events = 0;
  std::uint64_t span_count = 0;
};

[[noreturn]] void fail(const std::string& msg) {
  std::cerr << "chronoscope: " << msg << '\n';
  std::exit(1);
}

double require_number(const JsonValue& event, const char* key, std::uint64_t index) {
  const JsonValue* v = event.find(key);
  if (v == nullptr || !v->is_number()) {
    fail("event " + std::to_string(index) + ": missing numeric '" + key + "'");
  }
  return v->as_number();
}

std::string require_string(const JsonValue& event, const char* key, std::uint64_t index) {
  const JsonValue* v = event.find(key);
  if (v == nullptr || !v->is_string()) {
    fail("event " + std::to_string(index) + ": missing string '" + key + "'");
  }
  return v->as_string();
}

/// Single pass over traceEvents: validates the shape (every B matched by an E
/// of the same name on the same thread, in order) and aggregates the summary.
Analysis analyze(const JsonValue& doc) {
  if (!doc.is_object()) fail("top level is not a JSON object");
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    fail("missing 'traceEvents' array");
  }

  Analysis a;
  std::map<int, std::vector<OpenSpan>> open;  // per-tid B/E stack

  std::uint64_t index = 0;
  for (const JsonValue& event : events->items()) {
    ++index;
    if (!event.is_object()) fail("event " + std::to_string(index) + " is not an object");
    ++a.events;
    const std::string ph = require_string(event, "ph", index);

    if (ph == "M") {
      const std::string what = require_string(event, "name", index);
      if (what == "thread_name") {
        const int tid = static_cast<int>(require_number(event, "tid", index));
        const JsonValue* args = event.find("args");
        if (args != nullptr && args->is_object()) {
          if (const JsonValue* name = args->find("name"); name != nullptr && name->is_string()) {
            a.threads[tid].name = name->as_string();
          }
        }
      }
      continue;
    }

    const int tid = static_cast<int>(require_number(event, "tid", index));
    const double ts = require_number(event, "ts", index);
    if (ts < 0.0) fail("event " + std::to_string(index) + ": negative timestamp");
    ThreadAgg& th = a.threads[tid];
    if (!th.saw_event || ts < th.first_ts) th.first_ts = ts;
    th.last_ts = std::max(th.last_ts, ts);
    th.saw_event = true;

    if (ph == "B") {
      open[tid].push_back({require_string(event, "name", index), ts, 0.0});
    } else if (ph == "E") {
      auto& stack = open[tid];
      if (stack.empty()) {
        fail("event " + std::to_string(index) + ": 'E' with no open span on tid " +
             std::to_string(tid));
      }
      const std::string name = require_string(event, "name", index);
      if (stack.back().name != name) {
        fail("event " + std::to_string(index) + ": 'E' for '" + name +
             "' does not match open span '" + stack.back().name + "'");
      }
      const OpenSpan span = stack.back();
      stack.pop_back();
      const double dur = ts - span.ts;
      if (dur < 0.0) fail("event " + std::to_string(index) + ": span ends before it begins");

      SpanAgg& agg = a.spans[name];
      ++agg.count;
      agg.total_us += dur;
      agg.self_us += dur - span.child_us;
      ++a.span_count;
      ++th.spans;
      if (stack.empty()) {
        th.busy_us += dur;
        SpanAgg& root = a.roots[name];
        ++root.count;
        root.total_us += dur;
        root.self_us += dur - span.child_us;
      } else {
        stack.back().child_us += dur;
        ChildAgg& child = a.children[stack.back().name][name];
        ++child.count;
        child.total_us += dur;
        child.self_us += dur - span.child_us;
        if (!child.seen || span.ts < child.first_ts) {
          child.first_ts = span.ts;
          child.seen = true;
        }
      }
    } else if (ph == "C") {
      const std::string name = require_string(event, "name", index);
      const JsonValue* args = event.find("args");
      const JsonValue* value =
          (args != nullptr && args->is_object()) ? args->find("value") : nullptr;
      if (value == nullptr || !value->is_number()) {
        fail("event " + std::to_string(index) + ": counter without numeric args.value");
      }
      CounterAgg& c = a.counters[name];
      c.stats.add(value->as_number());
      c.last = value->as_number();
    } else {
      fail("event " + std::to_string(index) + ": unsupported phase '" + ph + "'");
    }
  }

  for (const auto& [tid, stack] : open) {
    if (!stack.empty()) {
      fail("unclosed span '" + stack.back().name + "' on tid " + std::to_string(tid));
    }
  }
  return a;
}

std::string format_us(double us) {
  std::ostringstream os;
  if (us >= 1e6) {
    os << AsciiTable::num(us / 1e6, 3) << " s";
  } else if (us >= 1e3) {
    os << AsciiTable::num(us / 1e3, 3) << " ms";
  } else {
    os << AsciiTable::num(us, 3) << " us";
  }
  return os.str();
}

void print_summary(const Analysis& a, int top) {
  std::cout << "events: " << a.events << "  spans: " << a.span_count
            << "  threads: " << a.threads.size() << "  counters: " << a.counters.size()
            << "\n\n";

  {
    std::vector<std::pair<std::string, SpanAgg>> rows(a.spans.begin(), a.spans.end());
    std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
      return x.second.self_us > y.second.self_us;
    });
    AsciiTable table({"span", "count", "self", "total", "avg total"});
    int shown = 0;
    for (const auto& [name, agg] : rows) {
      if (shown++ >= top) break;
      table.add_row({name, std::to_string(agg.count), format_us(agg.self_us),
                     format_us(agg.total_us),
                     format_us(agg.total_us / static_cast<double>(agg.count))});
    }
    std::cout << "Top spans by self time\n" << table.render() << '\n';
  }

  {
    AsciiTable table({"tid", "thread", "spans", "busy", "span window", "util %"});
    for (const auto& [tid, th] : a.threads) {
      if (!th.saw_event && th.name.empty()) continue;
      const double window = th.last_ts - th.first_ts;
      const double util = window > 0.0 ? 100.0 * th.busy_us / window : 0.0;
      table.add_row({std::to_string(tid), th.name.empty() ? "?" : th.name,
                     std::to_string(th.spans), format_us(th.busy_us), format_us(window),
                     AsciiTable::num(util, 1)});
    }
    std::cout << "Per-thread utilization (busy = depth-0 span coverage)\n"
              << table.render() << '\n';
  }

  if (!a.counters.empty()) {
    AsciiTable table({"counter", "samples", "min", "mean", "max", "last"});
    for (const auto& [name, c] : a.counters) {
      table.add_row({name, std::to_string(c.stats.count()), AsciiTable::num(c.stats.min(), 3),
                     AsciiTable::num(c.stats.mean(), 3), AsciiTable::num(c.stats.max(), 3),
                     AsciiTable::num(c.last, 3)});
    }
    std::cout << "Counters\n" << table.render();
  }
}

/// Per-phase breakdown under the dominant depth-0 span: each direct child is
/// one pipeline phase; wall share plus the unattributed gap attribute the
/// root's critical path (the pipeline runs its phases serially, so the wall
/// column *is* the critical-path cost of each phase).
int print_phases(const Analysis& a) {
  if (a.roots.empty()) fail("no completed depth-0 span to break down");
  const auto root_it =
      std::max_element(a.roots.begin(), a.roots.end(), [](const auto& x, const auto& y) {
        return x.second.total_us < y.second.total_us;
      });
  const std::string& root_name = root_it->first;
  const SpanAgg& root = root_it->second;

  std::cout << "Phase breakdown for '" << root_name << "' (" << root.count << " run(s), total "
            << format_us(root.total_us) << ")\n";

  std::vector<std::pair<std::string, ChildAgg>> phases;
  if (const auto it = a.children.find(root_name); it != a.children.end()) {
    phases.assign(it->second.begin(), it->second.end());
  }
  std::sort(phases.begin(), phases.end(),
            [](const auto& x, const auto& y) { return x.second.first_ts < y.second.first_ts; });

  AsciiTable table({"phase", "count", "wall", "% of root", "self", "avg"});
  double attributed_us = 0.0;
  double critical_us = 0.0;
  std::string critical;
  for (const auto& [name, c] : phases) {
    attributed_us += c.total_us;
    if (c.total_us > critical_us) {
      critical_us = c.total_us;
      critical = name;
    }
    table.add_row({name, std::to_string(c.count), format_us(c.total_us),
                   AsciiTable::num(root.total_us > 0.0 ? 100.0 * c.total_us / root.total_us : 0.0,
                                   1),
                   format_us(c.self_us),
                   format_us(c.total_us / static_cast<double>(c.count))});
  }
  const double gap_us = root.total_us - attributed_us;
  table.add_row({"(unattributed)", "", format_us(gap_us),
                 AsciiTable::num(root.total_us > 0.0 ? 100.0 * gap_us / root.total_us : 0.0, 1),
                 "", ""});
  std::cout << table.render();
  if (!critical.empty()) {
    std::cout << "critical phase: " << critical << " ("
              << AsciiTable::num(root.total_us > 0.0 ? 100.0 * critical_us / root.total_us : 0.0,
                                 1)
              << "% of the root's wall time)\n";
  }
  return 0;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) fail("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Validates one chronosync-metrics-v1 snapshot: schema marker, numeric and
/// finite values, and for every quantile family the ordering the histogram
/// guarantees (min <= p50 <= p90 <= p99 <= p999 <= max once it has samples).
int check_metrics(const std::string& path) {
  std::vector<std::pair<std::string, double>> metrics;
  try {
    metrics = chronosync::obs::read_metrics_json(slurp(path));
  } catch (const std::exception& e) {
    fail("'" + path + "': " + e.what());
  }
  for (const auto& [name, value] : metrics) {
    if (!std::isfinite(value)) fail("metric '" + name + "' is not finite");
  }

  // Group <family>.p50/.p90/.p99/.p999/.count/.min/.max by family prefix.
  std::map<std::string, std::map<std::string, double>> families;
  for (const auto& [name, value] : metrics) {
    for (const char* suffix : {".p50", ".p90", ".p99", ".p999", ".count", ".min", ".max"}) {
      if (name.size() > std::string(suffix).size() && name.ends_with(suffix)) {
        families[name.substr(0, name.size() - std::string(suffix).size())][suffix] = value;
      }
    }
  }
  std::size_t quantile_families = 0;
  for (const auto& [family, f] : families) {
    if (!f.count(".p50")) continue;  // histogram summaries carry no quantiles
    ++quantile_families;
    for (const char* suffix : {".p90", ".p99", ".p999", ".count", ".min", ".max"}) {
      if (!f.count(suffix)) fail("quantile family '" + family + "' is missing " + suffix);
    }
    const double count = f.at(".count");
    if (count < 0.0) fail("quantile family '" + family + "' has negative count");
    const double qs[] = {f.at(".min"), f.at(".p50"), f.at(".p90"), f.at(".p99"), f.at(".p999"),
                         f.at(".max")};
    if (count > 0.0) {
      for (std::size_t i = 1; i < std::size(qs); ++i) {
        if (qs[i - 1] > qs[i]) {
          fail("quantile family '" + family + "' is not monotone (min<=p50<=p90<=p99<=p999<=max)");
        }
      }
    }
  }
  std::cout << "chronoscope: metrics OK (" << metrics.size() << " metric(s), "
            << quantile_families << " quantile famil" << (quantile_families == 1 ? "y" : "ies")
            << ")\n";
  return 0;
}

/// Loads one artifact for --diff as a flat name -> value map.  Metrics
/// snapshots (schema marker present) gate their quantile keys; traces gate
/// per-span total wall time.
std::map<std::string, double> load_diff_values(const std::string& path, std::string& kind) {
  const std::string text = slurp(path);
  JsonValue doc;
  try {
    doc = JsonValue::parse(text);
  } catch (const std::exception& e) {
    fail("'" + path + "' is not valid JSON: " + e.what());
  }
  std::map<std::string, double> out;
  if (doc.is_object() && doc.find("schema") != nullptr) {
    kind = "metrics";
    std::vector<std::pair<std::string, double>> metrics;
    try {
      metrics = chronosync::obs::read_metrics_json(text);
    } catch (const std::exception& e) {
      fail("'" + path + "': " + e.what());
    }
    for (const auto& [name, value] : metrics) {
      for (const char* suffix : {".p50", ".p90", ".p99", ".p999"}) {
        if (name.ends_with(suffix)) out[name] = value;
      }
    }
  } else {
    kind = "trace";
    const Analysis a = analyze(doc);
    for (const auto& [name, agg] : a.spans) out[name + ".wall_us"] = agg.total_us;
  }
  return out;
}

/// Threshold-gated regression comparison of two runs' artifacts, for CI: a
/// gated value that grew by more than --threshold percent from A to B fails
/// the diff.  Improvements and new/missing keys are reported, never fatal.
int run_diff(const std::string& path_a, const std::string& path_b, double threshold_pct) {
  if (threshold_pct < 0.0) fail("--threshold must be non-negative");
  std::string kind_a, kind_b;
  const std::map<std::string, double> a = load_diff_values(path_a, kind_a);
  const std::map<std::string, double> b = load_diff_values(path_b, kind_b);
  if (kind_a != kind_b) {
    fail("cannot diff a " + kind_a + " artifact against a " + kind_b + " artifact");
  }

  AsciiTable table({"key", "A", "B", "delta %", "verdict"});
  std::size_t compared = 0;
  std::size_t regressed = 0;
  std::size_t unmatched = 0;
  for (const auto& [key, va] : a) {
    const auto it = b.find(key);
    if (it == b.end()) {
      ++unmatched;
      continue;
    }
    const double vb = it->second;
    ++compared;
    // Relative growth with an absolute floor: sub-nanosecond jitter on a
    // near-zero baseline is noise, not a regression.
    const bool worse = vb > va * (1.0 + threshold_pct / 100.0) + 1e-9;
    const double delta_pct = va != 0.0 ? 100.0 * (vb - va) / va : (vb != 0.0 ? 100.0 : 0.0);
    if (worse) ++regressed;
    table.add_row({key, AsciiTable::num(va, 3), AsciiTable::num(vb, 3),
                   AsciiTable::num(delta_pct, 1), worse ? "REGRESSED" : "ok"});
  }
  unmatched += [&] {
    std::size_t only_b = 0;
    for (const auto& [key, vb] : b) only_b += a.count(key) == 0 ? 1 : 0;
    return only_b;
  }();

  std::cout << "diff (" << kind_a << ", threshold " << threshold_pct << "%): " << compared
            << " key(s) compared, " << regressed << " regressed, " << unmatched
            << " unmatched\n"
            << table.render();
  if (regressed > 0) {
    std::cerr << "chronoscope: " << regressed << " value(s) regressed beyond " << threshold_pct
              << "%\n";
    return 1;
  }
  std::cout << "ok: no value regressed beyond " << threshold_pct << "%\n";
  return 0;
}

// --bench-gate rules.  A timing record in both files regresses when its CI
// for the median lies entirely above the baseline's, a slowdown beyond both
// runs' measured noise that one unlucky rep cannot fake.  Without CIs the p50
// ratio rules (a zero baseline p50 regresses).  Keys in one file never fail.
constexpr double kP50Tolerance = 1.25;
// perf_clc's disabled_pct_bound (EXPERIMENTS.md) = measured per-call disabled
// cost x gated sites run per rep x 2, over the uninstrumented p50: unlike the
// A/A percentages it is deterministic, so it cannot flake on runner noise.
constexpr double kObsDisabledPctBound = 1.0;
// The windowed CLC holds its window and message backlog, never the trace: at
// 10^6 events its resident events stay under this share of the trace and its
// peak RSS under kStreamRssFraction of the in-memory pass's (~7% measured, the
// rest is runner variance; streaming is sampled first, free of in-memory pages).
constexpr double kStreamResidentShare = 0.5;
constexpr double kStreamRssFraction = 0.35;

/// Reads a benchkit JSON-lines file; a line that is not JSON or that
/// record_from_json rejects fails the run.
std::vector<BenchRecord> read_bench_records(const std::string& path) {
  std::istringstream in(slurp(path));
  std::vector<BenchRecord> records;
  std::string line;
  for (std::size_t n = 1; std::getline(in, line); ++n) {
    try {
      records.push_back(chronosync::benchkit::record_from_json(JsonValue::parse(line)));
    } catch (const std::exception& e) {
      fail("'" + path + "' line " + std::to_string(n) + ": " + e.what());
    }
  }
  return records;
}

/// Timing records by (suite, name, config sorted by knob); the last record
/// with a key wins.
using BenchKey = std::tuple<std::string, std::string, chronosync::benchkit::ConfigList>;
std::map<BenchKey, BenchRecord> timing_records(const std::vector<BenchRecord>& records) {
  std::map<BenchKey, BenchRecord> out;
  for (const BenchRecord& r : records) {
    if (r.kind != "timing") continue;
    BenchKey key{r.suite, r.name, r.config};
    std::sort(std::get<2>(key).begin(), std::get<2>(key).end());
    out.insert_or_assign(std::move(key), r);
  }
  return out;
}

/// Metric `key` of the last perf_clc record called `name`; a missing record
/// or metric fails the gate.
double perf_clc_metric(const std::vector<BenchRecord>& records, const std::string& name,
                       const std::string& key) {
  const BenchRecord* rec = nullptr;
  for (const BenchRecord& r : records) {
    if (r.suite == "perf_clc" && r.name == name) rec = &r;
  }
  if (rec == nullptr) fail("perf_clc emitted no " + name + " record");
  for (const auto& [k, v] : rec->metrics) {
    if (k == key) return v;
  }
  fail(name + " has no metric '" + key + "'");
}

/// Gates `cur_path` against `base_path`, one table row per timing key and per
/// bound; exits 1 when a row fails.
int run_bench_gate(const std::string& base_path, const std::string& cur_path) {
  const std::map<BenchKey, BenchRecord> base = timing_records(read_bench_records(base_path));
  const std::vector<BenchRecord> records = read_bench_records(cur_path);
  const std::map<BenchKey, BenchRecord> cur = timing_records(records);
  AsciiTable table({"check", "baseline", "current", "rule", "verdict"});
  std::size_t failed = 0;
  const auto row = [&](const std::string& check, const std::string& b, const std::string& c,
                       const std::string& rule, bool bad) {
    table.add_row({check, b, c, rule, bad ? "FAILED" : "ok"});
    failed += bad ? 1 : 0;
  };
  const auto ns = [](double v) { return AsciiTable::num(v, 0); };
  const auto ci = [&](const BenchRecord& r) {
    return "[" + ns(r.wall_ns_ci_lo) + ", " + ns(r.wall_ns_ci_hi) + "]";
  };

  std::size_t compared = 0;
  std::size_t unmatched = 0;
  for (const auto& [key, b] : base) ++(cur.count(key) != 0 ? compared : unmatched);
  for (const auto& [key, c] : cur) {
    std::string label = std::get<0>(key) + "/" + std::get<1>(key);
    for (const auto& [k, v] : std::get<2>(key)) label += " " + k + "=" + v;
    const auto it = base.find(key);
    if (it == base.end()) {
      ++unmatched;
      table.add_row({label, "-", ns(c.wall_ns_p50), "", "no baseline"});
    } else if (const BenchRecord& b = it->second; b.boot_resamples > 0 && c.boot_resamples > 0) {
      row(label, ci(b), ci(c), "CI overlap", c.wall_ns_ci_lo > b.wall_ns_ci_hi);
    } else {
      const double ratio = b.wall_ns_p50 != 0.0 ? c.wall_ns_p50 / b.wall_ns_p50
                                                : std::numeric_limits<double>::infinity();
      row(label, ns(b.wall_ns_p50), ns(c.wall_ns_p50), "p50 " + AsciiTable::num(ratio, 2) + "x",
          ratio > kP50Tolerance);
    }
  }

  const double bound = perf_clc_metric(records, "obs_overhead", "disabled_pct_bound");
  row("obs_overhead disabled_pct_bound", "", AsciiTable::num(bound, 4) + "%",
      "<= " + AsciiTable::num(kObsDisabledPctBound, 1) + "%", bound > kObsDisabledPctBound);
  const double resident = perf_clc_metric(records, "clc_stream_memory", "peak_resident_events");
  const double limit =
      perf_clc_metric(records, "clc_stream_memory", "events") * kStreamResidentShare;
  row("clc_stream_memory peak_resident_events", "", ns(resident), "< " + ns(limit),
      resident >= limit);
  const double rss = perf_clc_metric(records, "clc_stream_memory", "peak_rss_bytes");
  const double inmemory_rss = perf_clc_metric(records, "clc_inmemory_memory", "peak_rss_bytes");
  const double fraction = rss / inmemory_rss;
  // Negated so that a zero in-memory peak (inf or NaN) fails too.
  row("clc_stream_memory peak_rss_bytes", ns(inmemory_rss) + " in memory",
      ns(rss) + " (" + AsciiTable::num(100.0 * fraction, 1) + "%)",
      "<= " + ns(100.0 * kStreamRssFraction) + "%", !(fraction <= kStreamRssFraction));

  std::cout << "bench-gate: " << compared << " timing key(s) compared, " << unmatched
            << " unmatched, " << failed << " check(s) failed\n"
            << table.render();
  if (failed > 0) std::cerr << "chronoscope: " << failed << " bench gate check(s) failed\n";
  return failed > 0 ? 1 : 0;
}

/// The Cli swallows the token after a bare flag as its value, so a mode's
/// file arguments may land in the flag's value, in positional(), or split
/// across both; collect them in order.
std::vector<std::string> mode_paths(const chronosync::Cli& cli, const char* flag) {
  std::vector<std::string> paths;
  const std::string v = cli.get(flag, "1");
  if (v != "1" && !v.empty()) paths.push_back(v);
  for (const auto& p : cli.positional()) paths.push_back(p);
  return paths;
}

[[noreturn]] void usage() {
  std::cerr << "usage: chronoscope [--check] [--top N] <trace.json>\n"
               "       chronoscope --phases <trace.json>\n"
               "       chronoscope --metrics <metrics.json>\n"
               "       chronoscope --diff <A> <B> [--threshold PCT]\n"
               "       chronoscope --bench-gate <records> | <baseline> <current>\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const chronosync::Cli cli(argc, argv);
  if (cli.reject_unknown("chronoscope", {"check", "top", "phases", "metrics", "diff",
                                          "threshold", "bench-gate"})) {
    return 2;
  }

  if (cli.has("diff")) {
    const std::vector<std::string> paths = mode_paths(cli, "diff");
    if (paths.size() != 2) usage();
    return run_diff(paths[0], paths[1], cli.get_double("threshold", 25.0));
  }
  if (cli.has("bench-gate")) {
    const std::vector<std::string> paths = mode_paths(cli, "bench-gate");
    if (paths.size() == 1) {
      const std::size_t n = read_bench_records(paths[0]).size();
      std::cout << "chronoscope: " << n << " bench record(s) OK\n";
      return 0;
    }
    if (paths.size() != 2) usage();
    return run_bench_gate(paths[0], paths[1]);
  }
  if (cli.has("metrics")) {
    const std::vector<std::string> paths = mode_paths(cli, "metrics");
    if (paths.size() != 1) usage();
    return check_metrics(paths[0]);
  }

  const char* flag = cli.has("phases") ? "phases" : "check";
  const std::vector<std::string> paths = mode_paths(cli, flag);
  if (paths.size() != 1) usage();
  const std::string& path = paths[0];

  JsonValue doc;
  try {
    doc = JsonValue::parse(slurp(path));
  } catch (const std::exception& e) {
    fail("'" + path + "' is not valid JSON: " + e.what());
  }

  const Analysis a = analyze(doc);

  if (cli.has("phases")) return print_phases(a);
  if (cli.has("check")) {
    std::cout << "chronoscope: OK (" << a.events << " events, " << a.span_count
              << " spans, " << a.threads.size() << " threads)\n";
    return 0;
  }

  print_summary(a, static_cast<int>(cli.get_int("top", 15)));
  return 0;
}
