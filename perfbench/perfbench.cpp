// End-to-end trace-correction benchmark program.
//
// Three subcommands, each printing one JSON object as its last line on
// stdout.  run.py strings them together so that set-up, the measured
// corrections and the output evaluation run in separate processes; the
// correction process's peak RSS then covers corrections and nothing else.
//
//   perfbench setup --workload W --seed N --dir D --reps K
//       Simulates workload W K times with the same seed and writes D/input.v2
//       and D/offsets.txt (the probe record a tracer keeps beside its trace)
//       each time.  Reports the simulate and write time of every rep, the
//       event count, and a CRC32C over both files; reps must agree bit for
//       bit.
//   perfbench correct --workload W --dir D --events N --seconds S --trace T
//       One warm-up correction into D/eval_out.v2, then corrections of
//       D/input.v2 for S seconds, every one checked.  With --trace 1 every
//       other correction times its public layer calls; the rest stay
//       untraced, so the two halves measure the tracing overhead.
//   perfbench evaluate --workload W --dir D --trace T
//       Checks D/eval_out.v2 against its input (same events, clock condition
//       intact) and measures its accuracy against the simulator's master
//       time and its interval distortion against the pre-synced input.
//
// Workloads (the only place their shapes are defined):
//   p2p-sweep       64-rank random-shift sweep, corrected in memory
//   collective-pop  8x8 POP proxy with PMPI regions, corrected in memory
//   stream-sweep    8-rank sweep written pre-synced, corrected out of core
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/clock_condition_stream.hpp"
#include "analysis/interval_stats.hpp"
#include "benchkit/metrics.hpp"
#include "clockmodel/timer_spec.hpp"
#include "common/cli.hpp"
#include "common/crc32c.hpp"
#include "common/expect.hpp"
#include "common/rng.hpp"
#include "sync/clc.hpp"
#include "sync/clc_stream.hpp"
#include "sync/interpolation.hpp"
#include "topology/cluster.hpp"
#include "topology/pinning.hpp"
#include "trace/logical_messages.hpp"
#include "trace/stream_io.hpp"
#include "verify/differential.hpp"
#include "verify/invariants.hpp"
#include "workload/pop.hpp"
#include "workload/sweep.hpp"

using namespace chronosync;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -- workloads ----------------------------------------------------------------

enum class Path { InMemory, Stream };

Path path_of(const std::string& workload) {
  if (workload == "p2p-sweep" || workload == "collective-pop") return Path::InMemory;
  if (workload == "stream-sweep") return Path::Stream;
  throw std::invalid_argument("unknown workload: " + workload);
}

/// Sweep with a barrier every 50 rounds on Xeon TSC clocks.  Up to 62 ranks
/// get a node each; more fill nodes core by core.
AppRunResult simulate_sweep(int ranks, int rounds, Duration gap, std::uint64_t seed) {
  SweepConfig cfg;
  cfg.rounds = rounds;
  cfg.gap_mean = gap;
  cfg.collective_every = 50;
  cfg.shift_seed = RngTree(seed).derive("perfbench.shift");
  JobConfig job;
  const ClusterSpec spec = clusters::xeon_rwth();
  job.placement = ranks <= spec.nodes ? pinning::inter_node(spec, ranks)
                                      : pinning::block(spec, ranks);
  job.timer = timer_specs::intel_tsc();
  job.seed = seed;
  return run_sweep(cfg, std::move(job));
}

AppRunResult simulate(const std::string& workload, std::uint64_t seed) {
  if (workload == "p2p-sweep") {
    // ~2e6 events over ~13 virtual minutes.
    return simulate_sweep(64, 7700, 100 * units::ms, seed);
  }
  if (workload == "collective-pop") {
    // The paper's ~25 min POP run with 1000 iterations traced mid-run.
    PopConfig cfg;
    cfg.px = 8;
    cfg.py = 8;
    cfg.total_iterations = 9000;
    cfg.traced_begin = 4000;
    cfg.traced_end = 5000;
    JobConfig job;
    job.placement = pinning::block(clusters::xeon_rwth(), cfg.px * cfg.py);
    job.timer = timer_specs::intel_tsc();
    job.record_mpi_regions = true;
    job.seed = seed;
    return run_pop(cfg, std::move(job));
  }
  if (workload == "stream-sweep") {
    // ~4e6 events over ~20 virtual minutes.
    return simulate_sweep(8, 124000, 10 * units::ms, seed);
  }
  throw std::invalid_argument("unknown workload: " + workload);
}

// -- files --------------------------------------------------------------------

struct Files {
  std::string input;    ///< the trace to correct (v2)
  std::string offsets;  ///< the probe record beside it
  std::string eval_out; ///< the warm-up correction's output, kept for evaluate
  std::string out;      ///< every timed correction's output, removed after it

  explicit Files(const std::string& dir)
      : input(dir + "/input.v2"),
        offsets(dir + "/offsets.txt"),
        eval_out(dir + "/eval_out.v2"),
        out(dir + "/out.v2") {}
};

/// One line per sample: rank, worker time, offset, rtt, printed so they
/// read back bit for bit.
void write_offsets(const OffsetStore& store, const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  CS_REQUIRE(f.good(), "cannot write " + path);
  f << "ranks " << store.ranks() << '\n' << std::setprecision(17);
  for (Rank r = 0; r < store.ranks(); ++r) {
    for (const OffsetMeasurement& m : store.of(r)) {
      f << r << ' ' << m.worker_time << ' ' << m.offset << ' ' << m.rtt << '\n';
    }
  }
  CS_REQUIRE(f.good(), "short write to " + path);
}

OffsetStore read_offsets(const std::string& path) {
  std::ifstream f(path);
  std::string word;
  int ranks = 0;
  CS_REQUIRE(f >> word >> ranks && word == "ranks" && ranks > 0, "bad offsets file " + path);
  OffsetStore store(ranks);
  Rank r = 0;
  OffsetMeasurement m;
  while (f >> r >> m.worker_time >> m.offset >> m.rtt) {
    CS_REQUIRE(r >= 0 && r < ranks, "offsets file names an unknown rank");
    store.add(r, m);
  }
  CS_REQUIRE(f.eof(), "bad offsets file " + path);
  return store;
}

std::uint32_t file_crc(const std::string& path, std::uint32_t crc) {
  std::ifstream f(path, std::ios::binary);
  CS_REQUIRE(f.good(), "cannot read " + path);
  std::vector<char> buf(1 << 20);
  while (f.read(buf.data(), static_cast<std::streamsize>(buf.size())) || f.gcount() > 0) {
    crc = crc32c(crc, buf.data(), static_cast<std::size_t>(f.gcount()));
  }
  return crc;
}

// -- process resources --------------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// High-water RSS of this process image (VmHWM).  Unlike ru_maxrss it starts
/// afresh at exec, so the launching process's footprint never leaks in.
std::uint64_t peak_rss_bytes() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      std::uint64_t kib = 0;
      f >> kib;
      return kib * 1024;
    }
    f.ignore(1 << 12, '\n');
  }
  return 0;
}

// -- layer spans --------------------------------------------------------------

/// Wall time and requested heap bytes of one named span, summed over the
/// span's occurrences in one correction.
struct LayerSample {
  double ms = 0.0;
  std::uint64_t alloc_bytes = 0;
};
using Layers = std::map<std::string, LayerSample>;

/// Times one public layer call from outside.  A null `layers` (an untraced
/// correction) makes it free apart from the null check.
class Span {
 public:
  Span(Layers* layers, const char* name) : layers_(layers), name_(name) {
    if (layers_ == nullptr) return;
    alloc0_ = benchkit::allocation_totals().bytes;
    t0_ = Clock::now();
  }
  ~Span() {
    if (layers_ == nullptr) return;
    const double ms = 1e3 * seconds_since(t0_);
    const std::uint64_t alloc = benchkit::allocation_totals().bytes - alloc0_;
    LayerSample& s = (*layers_)[name_];
    s.ms += ms;
    s.alloc_bytes += alloc;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layers* layers_;
  const char* name_;
  std::uint64_t alloc0_ = 0;
  Clock::time_point t0_{};
};

template <class F>
decltype(auto) timed(Layers* layers, const char* name, F&& f) {
  const Span span(layers, name);
  return f();
}

// -- one correction -----------------------------------------------------------

/// What a correction did, as counts.  They depend only on the input, so every
/// correction of one run must report the same ones.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t p2p_messages = 0;
  std::uint64_t logical_messages = 0;
  std::uint64_t schedule_edges = 0;
  std::uint64_t repaired = 0;
  std::uint64_t audit_edges = 0;
  std::uint64_t input_bytes = 0;
  std::uint64_t output_bytes = 0;
  // Streaming path only.
  std::uint64_t stream_peak_resident_events = 0;
  std::uint64_t stream_peak_outstanding_msgs = 0;
  std::uint64_t stream_spilled_msgs = 0;
  std::uint64_t stream_divergences = 0;
  std::uint64_t scan_peak_outstanding_messages = 0;

  bool operator==(const Counts&) const = default;
};

struct Outcome {
  std::string error;  ///< why the output failed its check; empty when it passed
  Counts counts;

  bool ok() const { return error.empty(); }
};

/// decode -> match -> derive -> schedule -> pre-sync -> CLC -> zero-slack
/// audit -> copy corrected timestamps into the events -> encode.
Outcome correct_in_memory(const Files& files, const std::string& out_path, bool remove_output,
                          std::uint64_t expected_events, Layers* layers) {
  Outcome o;
  Trace trace = timed(layers, "trace.decode", [&] { return read_trace_v2_file(files.input); });
  std::vector<MessageRecord> messages =
      timed(layers, "trace.match", [&] { return trace.match_messages(); });
  std::vector<LogicalMessage> logical = timed(layers, "trace.derive", [&] {
    return derive_logical_messages(trace, trace.collect_collectives());
  });
  std::optional<ReplaySchedule> schedule;
  timed(layers, "sync.schedule", [&] { schedule.emplace(trace, messages, logical); });
  TimestampArray input = timed(layers, "sync.presync", [&] {
    return apply_correction(trace, LinearInterpolation::from_store(read_offsets(files.offsets)));
  });
  ClcResult clc = timed(layers, "sync.clc",
                        [&] { return controlled_logical_clock(trace, *schedule, input); });
  const verify::VerifyReport audit = timed(layers, "verify.audit", [&] {
    return verify::InvariantChecker(trace, *schedule).check_correction(input, clc.corrected);
  });
  timed(layers, "trace.encode", [&] {
    for (Rank r = 0; r < trace.ranks(); ++r) {
      std::vector<Event>& events = trace.events(r);
      const std::vector<Time>& ts = clc.corrected.of_rank(r);
      for (std::size_t i = 0; i < events.size(); ++i) events[i].local_ts = ts[i];
    }
    write_trace_v2_file(trace, out_path);
  });

  o.counts.events = trace.total_events();
  o.counts.p2p_messages = messages.size();
  o.counts.logical_messages = logical.size();
  o.counts.schedule_edges = schedule->edges();
  o.counts.repaired = clc.violations_repaired;
  o.counts.audit_edges = audit.edges_checked;
  if (!audit.ok()) o.error += "zero-slack audit failed: " + audit.summary();
  if (o.counts.events != expected_events) o.error += "event count differs from the input; ";

  timed(layers, "trace.remove", [&] {
    o.counts.input_bytes = fs::file_size(files.input);
    o.counts.output_bytes = fs::file_size(out_path);
    if (remove_output) fs::remove(out_path);
  });
  // Freeing a few hundred MB is part of the correction's cost too.
  timed(layers, "e2e.release", [&] {
    clc = {};
    input = {};
    schedule.reset();
    logical = {};
    messages = {};
    trace = {};
  });
  return o;
}

/// clc_stream_file over the pre-synced input, then the streaming Eq. 1 scan
/// over its output.
Outcome correct_stream(const Files& files, const std::string& out_path, bool remove_output,
                       std::uint64_t expected_events, Layers* layers) {
  Outcome o;
  const StreamClcStats st =
      timed(layers, "sync.clc_stream", [&] { return clc_stream_file(files.input, out_path); });
  ScanStats scan_stats;
  const ClockConditionReport scan = timed(
      layers, "analysis.scan", [&] { return scan_clock_condition_file(out_path, &scan_stats); });

  o.counts.events = st.events;
  o.counts.p2p_messages = st.p2p_edges;
  o.counts.logical_messages = st.logical_edges;
  o.counts.repaired = st.violations_repaired;
  o.counts.stream_peak_resident_events = st.peak_resident_events;
  o.counts.stream_peak_outstanding_msgs = st.peak_outstanding_msgs;
  o.counts.stream_spilled_msgs = st.spilled_msgs;
  o.counts.stream_divergences = st.ramp_clamped + st.horizon_dropped + st.forced;
  o.counts.scan_peak_outstanding_messages = scan_stats.peak_outstanding_messages;

  if (scan.violations() > 0) o.error += "output violates the clock condition; ";
  if (o.counts.stream_divergences > 0) o.error += "streaming CLC diverged; ";
  if (st.events != expected_events || scan.total_events != expected_events) {
    o.error += "event count differs from the input; ";
  }

  timed(layers, "trace.remove", [&] {
    o.counts.input_bytes = fs::file_size(files.input);
    o.counts.output_bytes = fs::file_size(out_path);
    if (remove_output) fs::remove(out_path);
  });
  return o;
}

Outcome correct_once(Path path, const Files& files, const std::string& out_path,
                     bool remove_output, std::uint64_t expected_events, Layers* layers) {
  try {
    return path == Path::InMemory
               ? correct_in_memory(files, out_path, remove_output, expected_events, layers)
               : correct_stream(files, out_path, remove_output, expected_events, layers);
  } catch (const std::exception& e) {
    return {std::string("threw: ") + e.what(), {}};
  }
}

// -- JSON output --------------------------------------------------------------

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

template <class T>
std::string json_list(const std::vector<T>& values) {
  std::ostringstream s;
  s << std::setprecision(17) << '[';
  for (std::size_t i = 0; i < values.size(); ++i) s << (i ? "," : "") << values[i];
  s << ']';
  return s.str();
}

std::string counts_json(const Counts& c) {
  std::ostringstream s;
  s << "{\"events\":" << c.events << ",\"p2p_messages\":" << c.p2p_messages
    << ",\"logical_messages\":" << c.logical_messages
    << ",\"schedule_edges\":" << c.schedule_edges << ",\"repaired\":" << c.repaired
    << ",\"audit_edges\":" << c.audit_edges << ",\"input_bytes\":" << c.input_bytes
    << ",\"output_bytes\":" << c.output_bytes
    << ",\"stream_peak_resident_events\":" << c.stream_peak_resident_events
    << ",\"stream_peak_outstanding_msgs\":" << c.stream_peak_outstanding_msgs
    << ",\"stream_spilled_msgs\":" << c.stream_spilled_msgs
    << ",\"stream_divergences\":" << c.stream_divergences
    << ",\"scan_peak_outstanding_messages\":" << c.scan_peak_outstanding_messages << '}';
  return s.str();
}

// -- subcommands --------------------------------------------------------------

int cmd_setup(const Cli& cli) {
  const std::string workload = cli.get("workload", "");
  const Path path = path_of(workload);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const Files files(cli.get("dir", "."));
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  CS_REQUIRE(reps >= 1, "--reps must be positive");

  std::vector<double> simulate_s;
  std::vector<double> write_s;
  std::vector<std::uint32_t> crcs;
  std::uint64_t events = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    AppRunResult run = simulate(workload, seed);
    simulate_s.push_back(seconds_since(t0));

    const auto t1 = Clock::now();
    if (path == Path::Stream) {
      // The streaming path corrects a trace that was pre-synced when written.
      const TimestampArray pre =
          apply_correction(run.trace, LinearInterpolation::from_store(run.offsets));
      for (Rank r = 0; r < run.trace.ranks(); ++r) {
        std::vector<Event>& ev = run.trace.events(r);
        for (std::size_t i = 0; i < ev.size(); ++i) ev[i].local_ts = pre.of_rank(r)[i];
      }
    }
    write_trace_v2_file(run.trace, files.input);
    write_offsets(run.offsets, files.offsets);
    write_s.push_back(seconds_since(t1));

    events = run.trace.total_events();
    crcs.push_back(file_crc(files.offsets, file_crc(files.input, 0)));
  }
  const bool deterministic =
      std::all_of(crcs.begin(), crcs.end(), [&](std::uint32_t c) { return c == crcs[0]; });

  std::cout << "{\"events\":" << events << ",\"input_crc\":" << crcs[0]
            << ",\"deterministic\":" << (deterministic ? "true" : "false")
            << ",\"simulate_s\":" << json_list(simulate_s)
            << ",\"write_s\":" << json_list(write_s) << "}\n";
  return 0;
}

int cmd_correct(const Cli& cli) {
  const Path path = path_of(cli.get("workload", ""));
  const Files files(cli.get("dir", "."));
  const auto events = static_cast<std::uint64_t>(cli.get_int("events", 0));
  const double seconds = cli.get_double("seconds", 10.0);
  const bool trace = cli.get_int("trace", 0) != 0;

  // Warm-up: fills the page cache and the allocator; its output is the one
  // evaluate inspects.
  const Outcome warm = correct_once(path, files, files.eval_out, false, events, nullptr);

  std::vector<double> wall_s, cpu_s, traced_wall_s, untraced_wall_s, span_sum_s;
  std::map<std::string, std::vector<double>> layer_ms;
  std::map<std::string, std::vector<double>> layer_alloc;
  std::vector<std::string> errors;
  if (!warm.ok()) errors.push_back("warm-up: " + warm.error);
  int attempted = 0;
  int failed = 0;

  const auto start = Clock::now();
  for (int i = 0; seconds_since(start) < seconds || i < (trace ? 2 : 1); ++i) {
    const bool traced = trace && i % 2 == 1;
    Layers layers;
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const Outcome o = correct_once(path, files, files.out, true, events,
                                   traced ? &layers : nullptr);
    const double wall = seconds_since(t0);
    const double cpu = cpu_seconds() - cpu0;

    ++attempted;
    if (!o.ok() || !(o.counts == warm.counts)) {
      // A failed output is counted, never timed as a success.
      ++failed;
      errors.push_back(o.ok() ? "counts differ from the warm-up correction" : o.error);
      continue;
    }
    wall_s.push_back(wall);
    cpu_s.push_back(cpu);
    (traced ? traced_wall_s : untraced_wall_s).push_back(wall);
    if (traced) {
      double sum = 0.0;
      for (const auto& [name, s] : layers) {
        layer_ms[name].push_back(s.ms);
        layer_alloc[name].push_back(static_cast<double>(s.alloc_bytes));
        sum += s.ms / 1e3;
      }
      span_sum_s.push_back(sum);
    }
  }
  std::error_code ignored;
  fs::remove(files.out, ignored);  // left behind only by a failed correction

  std::ostringstream layers_json;
  layers_json << '{';
  bool first = true;
  for (const auto& [name, ms] : layer_ms) {
    layers_json << (first ? "" : ",") << quoted(name) << ":{\"ms\":" << json_list(ms)
                << ",\"alloc_bytes\":" << json_list(layer_alloc[name]) << '}';
    first = false;
  }
  layers_json << '}';

  std::cout << "{\"warmup_ok\":" << (warm.ok() ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"counts\":" << counts_json(warm.counts)
            << ",\"peak_rss_bytes\":" << peak_rss_bytes()
            << ",\"event_struct_bytes\":" << sizeof(Event)
            << ",\"wall_s\":" << json_list(wall_s) << ",\"cpu_s\":" << json_list(cpu_s)
            << ",\"traced_wall_s\":" << json_list(traced_wall_s)
            << ",\"untraced_wall_s\":" << json_list(untraced_wall_s)
            << ",\"span_sum_s\":" << json_list(span_sum_s)
            << ",\"layers\":" << layers_json.str() << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size() && i < 8; ++i) {
    std::cout << (i ? "," : "") << quoted(errors[i]);
  }
  std::cout << "]}\n";
  return 0;
}

/// Longest happened-before chain, in events, through program order and the
/// schedule's message edges.
std::uint32_t critical_path(const ReplaySchedule& schedule) {
  std::vector<std::uint32_t> depth(schedule.events(), 0);
  std::uint32_t longest = 0;
  schedule.replay([&](std::uint32_t g, const EventRef& ref) {
    std::uint32_t d = ref.index > 0 ? depth[g - 1] : 0;
    for (const auto& edge : schedule.incoming(g)) d = std::max(d, depth[edge.source]);
    depth[g] = d + 1;
    longest = std::max(longest, d + 1);
  });
  return longest;
}

bool same_events_but_local_ts(const Trace& a, const Trace& b) {
  if (a.ranks() != b.ranks()) return false;
  for (Rank r = 0; r < a.ranks(); ++r) {
    const auto& ea = a.events(r);
    const auto& eb = b.events(r);
    if (ea.size() != eb.size()) return false;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      const Event& x = ea[i];
      const Event& y = eb[i];
      if (x.type != y.type || std::bit_cast<std::uint64_t>(x.true_ts) !=
                                  std::bit_cast<std::uint64_t>(y.true_ts) ||
          x.region != y.region || x.peer != y.peer || x.tag != y.tag || x.bytes != y.bytes ||
          x.msg_id != y.msg_id || x.coll != y.coll || x.coll_id != y.coll_id ||
          x.root != y.root || x.omp_instance != y.omp_instance || x.thread != y.thread) {
        return false;
      }
    }
  }
  return true;
}

int cmd_evaluate(const Cli& cli) {
  const Path path = path_of(cli.get("workload", ""));
  const Files files(cli.get("dir", "."));
  const bool trace = cli.get_int("trace", 0) != 0;

  const Trace input = read_trace_v2_file(files.input);
  const ClockConditionReport scan = scan_clock_condition_file(files.eval_out);
  bool fields_match = false;
  verify::MethodOutput clc{"clc", {}, true};
  {
    const Trace output = read_trace_v2_file(files.eval_out);
    fields_match = same_events_but_local_ts(input, output);
    clc.ts = TimestampArray::from_local(output);
  }
  // The CLC's own input: the in-memory path pre-syncs while correcting, the
  // streaming path reads a trace pre-synced at set-up.
  const TimestampArray presynced =
      path == Path::InMemory
          ? apply_correction(input, LinearInterpolation::from_store(read_offsets(files.offsets)))
          : TimestampArray::from_local(input);
  const double distortion_pct =
      100.0 * interval_distortion(input, presynced, clc.ts).relative.mean();
  const auto accuracy = verify::ground_truth_accuracy(input, {clc});
  const double rms_us = accuracy.empty() ? -1.0 : 1e6 * accuracy[0].rms_error;

  std::uint32_t dag_critical_path = 0;
  if (trace && path == Path::InMemory) {
    const auto messages = input.match_messages();
    const auto logical = derive_logical_messages(input);
    dag_critical_path = critical_path(ReplaySchedule(input, messages, logical));
  }

  std::cout << std::setprecision(17) << "{\"fields_match\":" << (fields_match ? "true" : "false")
            << ",\"output_events\":" << scan.total_events
            << ",\"output_violations\":" << scan.violations()
            << ",\"accuracy_rms_us\":" << rms_us
            << ",\"interval_distortion_pct\":" << distortion_pct
            << ",\"dag_critical_path\":" << dag_critical_path << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage =
      "usage: perfbench setup|correct|evaluate --workload W --dir D [options]\n";
  if (argc < 2) {
    std::cerr << usage;
    return 2;
  }
  const std::string command = argv[1];
  const Cli cli(argc - 1, argv + 1);
  try {
    if (command == "setup") return cmd_setup(cli);
    if (command == "correct") return cmd_correct(cli);
    if (command == "evaluate") return cmd_evaluate(cli);
  } catch (const std::exception& e) {
    std::cerr << "perfbench " << command << ": " << e.what() << '\n';
    return 1;
  }
  std::cerr << usage;
  return 2;
}
