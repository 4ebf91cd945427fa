// Performance — trace subsystem throughput: v2 serialization, logical-message
// derivation, timeline rendering, and the out-of-core streaming scan.
//
// The streaming section runs FIRST and compares resident memory of the two
// clock-condition pipelines over the same ≥1M-event v2 file: peak RSS is a
// process-wide high-water mark, so the bounded-memory stage must be metered
// before anything materializes a large trace.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/clock_condition.hpp"
#include "analysis/clock_condition_stream.hpp"
#include "benchkit/benchkit.hpp"
#include "common/cli.hpp"
#include "obs/session.hpp"
#include "common/expect.hpp"
#include "sync/replay.hpp"
#include "trace/logical_messages.hpp"
#include "trace/stream_io.hpp"
#include "trace/timeline.hpp"
#include "verify/differential.hpp"
#include "verify/invariants.hpp"
#include "workload/sweep.hpp"

using namespace chronosync;

namespace {

Trace make_fixture(int ranks, int rounds, std::uint64_t seed) {
  SweepConfig cfg;
  cfg.rounds = rounds;
  cfg.gap_mean = 0.01;
  cfg.collective_every = 25;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), ranks);
  job.timer = timer_specs::intel_tsc();
  job.seed = seed;
  return run_sweep(cfg, std::move(job)).trace;
}

/// Writes a synthetic trace of ~`total` events rank-by-rank through
/// TraceWriter without ever materializing a Trace: resident memory stays at
/// one Event regardless of the trace size.  Every tenth event pair is a
/// matched cross-rank message (rank r event i=_8 sends to rank r+1, whose
/// i=_9 receives it), so the streaming scan has real pairing work to do; one
/// message in 16 is timestamped in violation of the clock condition.
std::uint64_t write_synthetic_stream(const std::string& path, int ranks,
                                     std::uint64_t total) {
  TraceMeta meta;
  meta.placement = pinning::inter_node(clusters::xeon_rwth(), ranks);
  meta.domain_min_latency = {0.47e-6, 0.86e-6, 4.29e-6};
  meta.timer_name = "synthetic-stream";
  meta.regions = {"compute"};

  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  CS_REQUIRE(f.good(), "cannot open streaming bench file: " + path);
  TraceWriter w(f, meta);
  const std::uint64_t per_rank = total / static_cast<std::uint64_t>(ranks);
  constexpr double kStep = 1e-5;  // > inter-node l_min, so matched pairs obey Eq. 1
  for (int r = 0; r < ranks; ++r) {
    const int prev = (r + ranks - 1) % ranks;
    for (std::uint64_t i = 0; i < per_rank; ++i) {
      Event e;
      e.local_ts = static_cast<double>(i) * kStep;
      e.thread = 0;
      switch (i % 10) {
        case 8:
          e.type = EventType::Send;
          e.peer = (r + 1) % ranks;
          e.tag = 1;
          e.bytes = 8192;
          e.msg_id = static_cast<std::int64_t>(per_rank) * r + static_cast<std::int64_t>(i);
          break;
        case 9:
          e.type = EventType::Recv;
          e.peer = prev;
          e.msg_id =
              static_cast<std::int64_t>(per_rank) * prev + static_cast<std::int64_t>(i - 1);
          // Every 16th message arrives before it was sent (a reversal).
          if ((i / 10) % 16 == 0) e.local_ts = static_cast<double>(i - 1) * kStep - 1e-7;
          break;
        default:
          e.type = (i % 2 == 0) ? EventType::Enter : EventType::Exit;
          e.region = 0;
          break;
      }
      e.true_ts = e.local_ts;
      w.append(r, e);
    }
  }
  w.finish();
  return w.events_written();
}

/// Out-of-core section: generation throughput, streaming-scan throughput, and
/// the resident-memory comparison against the in-memory loader.
void run_streaming_section(benchkit::Harness& harness, std::uint64_t stream_events) {
  using benchkit::allocation_totals;
  using benchkit::sample_resource_usage;

  const int ranks = 8;
  const std::string file = "bench_stream_trace.v2";
  const benchkit::ConfigList cfg = {{"stream_events", std::to_string(stream_events)},
                                    {"stream_ranks", std::to_string(ranks)}};

  std::uint64_t written = 0;
  harness.time("v2_stream_write", cfg, static_cast<std::int64_t>(stream_events), [&] {
    written = write_synthetic_stream(file, ranks, stream_events);
    benchkit::do_not_optimize(written);
  });

  // One metered pass: allocation and RSS deltas of the bounded-memory scan.
  const auto rss_before = sample_resource_usage();
  const auto alloc_before = allocation_totals();
  const ClockConditionReport streamed = scan_clock_condition_file(file);
  const auto rss_after = sample_resource_usage();
  const auto alloc_after = allocation_totals();
  harness.metric(
      "v2_stream_scan_memory", cfg,
      {{"events", static_cast<double>(written)},
       {"alloc_bytes", static_cast<double>(alloc_after.bytes - alloc_before.bytes)},
       {"current_rss_delta_bytes",
        static_cast<double>(rss_after.current_rss_bytes - rss_before.current_rss_bytes)},
       {"peak_rss_bytes", static_cast<double>(rss_after.peak_rss_bytes)},
       {"p2p_messages", static_cast<double>(streamed.p2p_messages)},
       {"p2p_reversed", static_cast<double>(streamed.p2p_reversed)}});

  harness.time("v2_stream_scan", cfg, static_cast<std::int64_t>(written), [&] {
    const auto rep = scan_clock_condition_file(file);
    benchkit::do_not_optimize(rep.p2p_messages);
  });

  // The in-memory pipeline over the same file, metered the same way.  Runs
  // after the streaming stage so its footprint cannot inflate the streaming
  // peak-RSS sample.
  const auto rss_mem_before = sample_resource_usage();
  const auto alloc_mem_before = allocation_totals();
  {
    const Trace t = read_trace_v2_file(file);
    const ClockConditionReport in_memory =
        check_clock_condition(t, TimestampArray::from_local(t));
    const auto rss_mem_after = sample_resource_usage();
    const auto alloc_mem_after = allocation_totals();
    CS_ENSURE(streamed == in_memory, "streaming scan diverges from the in-memory pipeline");
    harness.metric(
        "inmemory_scan_memory", cfg,
        {{"events", static_cast<double>(t.total_events())},
         {"alloc_bytes",
          static_cast<double>(alloc_mem_after.bytes - alloc_mem_before.bytes)},
         {"current_rss_delta_bytes",
          static_cast<double>(rss_mem_after.current_rss_bytes -
                              rss_mem_before.current_rss_bytes)},
         {"peak_rss_bytes", static_cast<double>(rss_mem_after.peak_rss_bytes)}});
  }
  std::remove(file.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  benchkit::Harness harness(cli, "perf_trace");
  obs::ObsSession obs_session(cli, "perf_trace");
  const int ranks = static_cast<int>(cli.get_int("ranks", 16));
  const int rounds = static_cast<int>(cli.get_int("rounds", 500));
  const auto stream_events =
      static_cast<std::uint64_t>(cli.get_int("stream-events", 1000000));

  // Before any in-memory fixture exists: the peak-RSS comparison needs the
  // streaming stage to run in a small process.
  if (stream_events > 0) run_streaming_section(harness, stream_events);

  const Trace t = make_fixture(ranks, rounds, cli.get_seed());
  const auto events = static_cast<std::int64_t>(t.total_events());
  const benchkit::ConfigList base = {{"ranks", std::to_string(ranks)},
                                     {"rounds", std::to_string(rounds)}};

  harness.time("v2_write", base, events, [&] {
    std::stringstream buf;
    write_trace_v2(t, buf);
    benchkit::do_not_optimize(buf.tellp());
  });

  {
    std::stringstream buf;
    write_trace_v2(t, buf);
    const std::string blob = buf.str();
    harness.time("v2_round_trip", base, events, [&] {
      std::stringstream in(blob);
      Trace back = read_trace_v2(in);
      benchkit::do_not_optimize(back.total_events());
    });
  }

  // Encoded size of the fixture in the v2 container.
  {
    std::stringstream v2;
    write_trace_v2(t, v2);
    harness.metric("format_sizes", base,
                   {{"v2_bytes", static_cast<double>(v2.str().size())},
                    {"events", static_cast<double>(events)}});
  }

  harness.time("derive_logical_messages", base, events, [&] {
    auto logical = derive_logical_messages(t);
    benchkit::do_not_optimize(logical.size());
  });

  // Dependency-ordered traversal throughput over the CSR schedule — the
  // common substrate of every replay-based consumer (CLC, logical clocks,
  // violation scans).
  {
    const auto msgs = t.match_messages();
    const auto logical = derive_logical_messages(t);
    const ReplaySchedule schedule(t, msgs, logical);
    harness.time("replay_visit", base, static_cast<std::int64_t>(schedule.events()), [&] {
      std::uint64_t acc = 0;
      schedule.replay([&](std::uint32_t g, EventRef) { acc += g; });
      benchkit::do_not_optimize(acc);
    });
  }

  {
    const auto ts = TimestampArray::from_local(t);
    TimelineOptions opt;
    opt.max_messages = 10;
    harness.time("timeline_render", base, events, [&] {
      const std::string s = render_timeline(t, ts, opt);
      benchkit::do_not_optimize(s.size());
    });
  }

  // Opt-in audit: the fixture's local timestamps must be structurally sound
  // (finite, locally ordered) and both clock-condition scanners must equal
  // their oracle on it field-for-field.
  if (cli.has("verify")) {
    const auto msgs = t.match_messages();
    const auto logical = derive_logical_messages(t);
    const ReplaySchedule schedule(t, msgs, logical);
    verify::VerifyOptions vopt;
    vopt.clock_condition_slack = kTimeInfinity;  // raw clocks do violate Eq. 1
    const verify::InvariantChecker checker(t, schedule, vopt);
    const auto audit = checker.check(TimestampArray::from_local(t));
    if (!audit.ok()) std::fprintf(stderr, "%s", audit.summary().c_str());
    CS_ENSURE(audit.ok(), "trace fixture violates structural invariants");
    std::vector<std::string> failures;
    verify::cross_check_scans(t, schedule, failures);
    for (const auto& f : failures) std::fprintf(stderr, "FAIL %s\n", f.c_str());
    CS_ENSURE(failures.empty(), "clock-condition scanners diverge");
    std::fprintf(stderr, "verify: trace invariants + scanner cross-check ok\n");
  }
  obs_session.finish();
  return 0;
}
