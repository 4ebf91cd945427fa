#include "sync/clc_stream.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../testutil/error_of.hpp"
#include "../testutil/random_trace.hpp"
#include "common/scratch_dir.hpp"
#include "analysis/clock_condition_stream.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "sync/clc.hpp"
#include "sync/replay.hpp"
#include "topology/cluster.hpp"
#include "trace/logical_messages.hpp"
#include "trace/stream_io.hpp"
#include "trace/trace_io_error.hpp"
#include "workload/sweep.hpp"

namespace chronosync {
namespace {

/// A trace with real message + collective traffic and genuine clock-condition
/// violations (TSC drift across nodes).
Trace sweep_fixture(std::uint64_t seed, int rounds = 30) {
  SweepConfig cfg;
  cfg.rounds = rounds;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::intel_tsc();
  job.seed = seed;
  return run_sweep(cfg, std::move(job)).trace;
}

ClcResult in_memory_clc(const Trace& t, const ClcOptions& opt) {
  const auto messages = t.match_messages();
  const auto logical = derive_logical_messages(t);
  const ReplaySchedule schedule(t, messages, logical);
  return controlled_logical_clock(t, schedule, TimestampArray::from_local(t), opt);
}

bool same_event(const Event& x, const Event& y) {
  return x.type == y.type && testutil::same_bits(x.local_ts, y.local_ts) &&
         testutil::same_bits(x.true_ts, y.true_ts) && x.region == y.region &&
         x.peer == y.peer && x.tag == y.tag && x.bytes == y.bytes && x.msg_id == y.msg_id &&
         x.coll == y.coll && x.coll_id == y.coll_id && x.root == y.root &&
         x.omp_instance == y.omp_instance && x.thread == y.thread;
}

std::string file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void expect_bit_identical(const Trace& trace, const std::string& out_path,
                          const StreamClcStats& stats, const ClcResult& mem) {
  EXPECT_EQ(stats.ramp_clamped, 0u);
  EXPECT_EQ(stats.horizon_dropped, 0u);
  EXPECT_EQ(stats.forced, 0u);
  EXPECT_EQ(stats.violations_repaired, mem.violations_repaired);
  EXPECT_TRUE(testutil::same_bits(stats.max_jump, mem.max_jump));
  EXPECT_TRUE(testutil::same_bits(stats.total_jump, mem.total_jump));

  const Trace out = read_trace_v2_file(out_path);
  ASSERT_EQ(out.ranks(), trace.ranks());
  for (Rank r = 0; r < trace.ranks(); ++r) {
    const auto& in_ev = trace.events(r);
    const auto& out_ev = out.events(r);
    ASSERT_EQ(out_ev.size(), in_ev.size()) << "rank " << r;
    const auto& lc = mem.corrected.of_rank(r);
    for (std::size_t i = 0; i < in_ev.size(); ++i) {
      ASSERT_TRUE(testutil::same_bits(out_ev[i].local_ts, lc[i]))
          << "rank " << r << " event " << i << ": " << out_ev[i].local_ts << " vs " << lc[i];
      // Every other field must survive untouched: the merge copies their
      // encoded bytes instead of re-encoding them.
      Event want = in_ev[i];
      want.local_ts = out_ev[i].local_ts;
      ASSERT_TRUE(same_event(out_ev[i], want)) << "rank " << r << " event " << i;
    }
  }
}

TEST(ClcStream, SweepWorkloadBitIdenticalToInMemory) {
  const ScratchDir scratch(testing::TempDir());
  const Trace trace = sweep_fixture(5);
  const std::string in_path = scratch.file("in.cstr");
  const std::string out_path = scratch.file("out.cstr");
  write_trace_v2_file(trace, in_path, /*events_per_chunk=*/64);

  StreamClcOptions opt;
  opt.emit_batch = 32;       // many interim sweeps, small retention
  opt.backward_window = 1e3;  // larger than any ramp: no clamping, bit-exact
  const StreamClcStats stats = clc_stream_file(in_path, out_path, opt);

  EXPECT_EQ(stats.events, trace.total_events());
  EXPECT_GT(stats.p2p_edges, 0u);
  EXPECT_GT(stats.violations_repaired, 0u);
  expect_bit_identical(trace, out_path, stats, in_memory_clc(trace, opt.clc));
}

// A trace cut mid-run leaves sends whose receive never comes.  Their entries
// stay in the message table until the run ends, and their backward holds are
// released at the horizon, so the output still equals the in-memory CLC.
TEST(ClcStream, OrphanSendsMatchInMemory) {
  const ScratchDir scratch(testing::TempDir());
  Trace trace = sweep_fixture(3);
  std::size_t orphans = 0;
  for (Rank r = 0; r < trace.ranks(); ++r) {
    orphans += std::erase_if(trace.events(r), [](const Event& e) {
      return e.type == EventType::Recv && e.msg_id % 7 == 0;
    });
  }
  ASSERT_GT(orphans, 0u);
  const std::string in_path = scratch.file("orphan_in.cstr");
  const std::string out_path = scratch.file("orphan_out.cstr");
  write_trace_v2_file(trace, in_path, /*events_per_chunk=*/64);

  StreamClcOptions opt;
  opt.emit_batch = 16;
  opt.backward_window = 1e3;  // no clamping: the in-memory CLC is exact
  const StreamClcStats stats = clc_stream_file(in_path, out_path, opt);

  EXPECT_EQ(stats.events, trace.total_events());
  expect_bit_identical(trace, out_path, stats, in_memory_clc(trace, opt.clc));
}

TEST(ClcStream, EmitBatchingDoesNotChangeTheOutput) {
  const ScratchDir scratch(testing::TempDir());
  const Trace trace = sweep_fixture(11, /*rounds=*/20);
  const std::string in_path = scratch.file("batch_in.cstr");
  write_trace_v2_file(trace, in_path, /*events_per_chunk=*/48);

  StreamClcOptions tiny;
  tiny.emit_batch = 4;         // sweep after nearly every event
  tiny.backward_window = 1e-3;  // small window: entries become final early
  StreamClcOptions huge;
  huge.emit_batch = std::size_t{1} << 20;  // one final sweep only
  huge.backward_window = 1e-3;
  const std::string out_a = scratch.file("batch_a.cstr");
  const std::string out_b = scratch.file("batch_b.cstr");
  const StreamClcStats sa = clc_stream_file(in_path, out_a, tiny);
  const StreamClcStats sb = clc_stream_file(in_path, out_b, huge);

  EXPECT_EQ(sa.violations_repaired, sb.violations_repaired);
  EXPECT_TRUE(testutil::traces_equal(read_trace_v2_file(out_a), read_trace_v2_file(out_b)));
  // The tiny batch must actually have bounded the window.
  EXPECT_LT(sa.peak_resident_events, sb.peak_resident_events);
}

TEST(ClcStream, BackwardAmortizationOffMatchesInMemory) {
  const ScratchDir scratch(testing::TempDir());
  const Trace trace = sweep_fixture(7, /*rounds=*/15);
  const std::string in_path = scratch.file("ba_in.cstr");
  const std::string out_path = scratch.file("ba_out.cstr");
  write_trace_v2_file(trace, in_path, /*events_per_chunk=*/64);

  StreamClcOptions opt;
  opt.clc.backward_amortization = false;
  opt.emit_batch = 16;
  const StreamClcStats stats = clc_stream_file(in_path, out_path, opt);
  expect_bit_identical(trace, out_path, stats, in_memory_clc(trace, opt.clc));
}

TEST(ClcStream, ClampedRampStillRepairsEveryViolation) {
  const ScratchDir scratch(testing::TempDir());
  const Trace trace = sweep_fixture(3);
  const std::string in_path = scratch.file("clamp_in.cstr");
  const std::string out_path = scratch.file("clamp_out.cstr");
  write_trace_v2_file(trace, in_path);

  StreamClcOptions opt;
  opt.backward_window = 1e-9;  // far smaller than any jump's natural ramp
  opt.emit_batch = 16;
  const StreamClcStats stats = clc_stream_file(in_path, out_path, opt);
  EXPECT_GT(stats.violations_repaired, 0u);
  EXPECT_GT(stats.ramp_clamped, 0u);  // divergence is declared, not silent

  // Even with the ramps clamped, the corrected trace must satisfy the clock
  // condition: amortization never un-repairs a violation.
  const auto rep = scan_clock_condition_file(out_path);
  EXPECT_EQ(rep.p2p_violations, 0u);
  EXPECT_EQ(rep.logical_violations, 0u);
}

TEST(ClcStream, EmptyTraceRoundTrips) {
  const ScratchDir scratch(testing::TempDir());
  Trace t(pinning::block(clusters::xeon_rwth(), 3), {1e-7, 1e-6, 5e-6}, "empty");
  const std::string in_path = scratch.file("empty_in.cstr");
  const std::string out_path = scratch.file("empty_out.cstr");
  write_trace_v2_file(t, in_path);
  const StreamClcStats stats = clc_stream_file(in_path, out_path, {});
  EXPECT_EQ(stats.events, 0u);
  const Trace out = read_trace_v2_file(out_path);
  EXPECT_EQ(out.ranks(), 3);
  EXPECT_EQ(out.total_events(), 0u);
}

TEST(ClcStream, TruncatedInputThrowsBeforeAnyOutputExists) {
  const ScratchDir scratch(testing::TempDir());
  const Trace trace = testutil::random_trace(21);
  const std::string in_path = scratch.file("trunc_in.cstr");
  const std::string out_path = scratch.file("trunc_out.cstr");
  write_trace_v2_file(trace, in_path);

  // Chop the tail off: the footer (and possibly part of the last chunk) is
  // gone.  The index pass must reject the file before any output is created.
  std::ifstream f(in_path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(f.tellg());
  f.seekg(0);
  std::string bytes(size, '\0');
  f.read(bytes.data(), static_cast<std::streamsize>(size));
  f.close();
  std::ofstream(in_path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(size - 10));

  EXPECT_THROW(clc_stream_file(in_path, out_path, {}), TraceIoError);
  std::ifstream probe(out_path);
  EXPECT_FALSE(probe.good()) << "no output file may exist after a failed run";
}

// The output is what the writer makes of the in-memory-corrected trace at the
// input's chunking, byte for byte: the merge keeps the chunk layout, rewrites
// the local_ts deltas exactly as the encoder would, and copies every other
// field's bytes.  The fixture's events are spread over a placement with one
// rank more, which keeps no events.
TEST(ClcStream, OutputBytesEqualWriterAtInputChunking) {
  const ScratchDir scratch(testing::TempDir());
  const Trace sweep = sweep_fixture(19, /*rounds=*/12);
  constexpr Rank kEmpty = 2;
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), sweep.ranks() + 1),
              sweep.domain_min_latency(), sweep.timer_name());
  for (const std::string& name : sweep.regions()) trace.intern_region(name);
  for (Rank r = 0; r < sweep.ranks(); ++r) trace.events(r < kEmpty ? r : r + 1) = sweep.events(r);
  ASSERT_TRUE(trace.events(kEmpty).empty());

  StreamClcOptions opt;
  opt.emit_batch = 16;
  opt.backward_window = 1e3;  // no clamping: the in-memory CLC is exact
  const ClcResult mem = in_memory_clc(trace, opt.clc);
  Trace corrected = trace;
  for (Rank r = 0; r < trace.ranks(); ++r) {
    for (std::size_t i = 0; i < corrected.events(r).size(); ++i) {
      corrected.events(r)[i].local_ts = mem.corrected.of_rank(r)[i];
    }
  }

  // 16384 is the default of older writers, whose files stay readable.
  for (const std::size_t epc :
       {std::size_t{3}, std::size_t{64}, kDefaultEventsPerChunk, std::size_t{16384}}) {
    const std::string in_path = scratch.file("chunking_in_" + std::to_string(epc));
    const std::string out_path = scratch.file("chunking_out_" + std::to_string(epc));
    write_trace_v2_file(trace, in_path, epc);
    const StreamClcStats stats = clc_stream_file(in_path, out_path, opt);
    EXPECT_EQ(stats.ramp_clamped + stats.horizon_dropped + stats.forced, 0u) << epc;
    EXPECT_GT(stats.violations_repaired, 0u);

    std::ostringstream want;
    write_trace_v2(corrected, want, epc);
    const std::string got = file_bytes(out_path);
    ASSERT_EQ(got.size(), want.str().size()) << "events_per_chunk " << epc;
    EXPECT_TRUE(got == want.str()) << "events_per_chunk " << epc;
  }
}

/// Corrects `trace` (4-event chunks) with metrics on and returns the
/// counters that explain the retention window: {held, window}.
std::pair<std::int64_t, std::int64_t> pending_reasons(const Trace& trace,
                                                      const StreamClcOptions& opt) {
  const ScratchDir scratch(testing::TempDir());
  const std::string in_path = scratch.file("pending_in.cstr");
  write_trace_v2_file(trace, in_path, /*events_per_chunk=*/4);
  obs::set_level(obs::Level::Metrics);
  obs::reset();
  clc_stream_file(in_path, scratch.file("pending_out.cstr"), opt);
  const std::int64_t held = obs::counter("clc.stream.pending_held_events").value();
  const std::int64_t window = obs::counter("clc.stream.pending_window_events").value();
  obs::set_level(obs::Level::Off);
  obs::reset();
  return {held, window};
}

Event local_event(Time t) {
  Event e;
  e.type = EventType::Enter;
  e.region = 0;
  e.local_ts = e.true_ts = t;
  return e;
}

Event p2p_event(EventType type, Time t, Rank peer, std::int64_t msg_id) {
  Event e;
  e.type = type;
  e.peer = peer;
  e.tag = 0;
  e.msg_id = msg_id;
  e.local_ts = e.true_ts = t;
  return e;
}

// The entries a sweep leaves pending are counted by why the first of them is
// not final: a hold (its cap may still change) or the backward window.
TEST(ClcStream, PendingCountersNameWhatKeepsTheWindow) {
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 2), {1e-7, 1e-6, 5e-6}, "pending");
  trace.intern_region("work");
  // Held: rank 0's first event is a send whose receive comes 0.2 s later.
  // The receive after it jumps (its send on rank 1 is 0.5 ms later), which
  // puts the send inside the jump's ramp, where only its receive settles
  // its cap: the send is held however far rank 0 moves on.
  auto& r0 = trace.events(0);
  r0.push_back(p2p_event(EventType::Send, 1.0, 1, 1));
  r0.push_back(p2p_event(EventType::Recv, 1.0001, 1, 2));
  for (int j = 0; j < 100; ++j) r0.push_back(local_event(1.0002 + j * 1e-3));
  auto& r1 = trace.events(1);
  r1.push_back(p2p_event(EventType::Send, 1.0005, 0, 2));
  for (int j = 0; j < 150; ++j) r1.push_back(local_event(1.001 + j * 1e-3));
  r1.push_back(p2p_event(EventType::Recv, 1.2, 0, 1));

  StreamClcOptions opt;
  opt.emit_batch = 4;
  opt.backward_window = 1e-2;  // longer than the jump's 8 ms ramp
  const auto [held, window] = pending_reasons(trace, opt);
  EXPECT_GT(held, 0);

  // Window: local events 1 ms apart over 0.1 s, inside the default 1 s
  // backward window, stay pending until their rank ends; nothing holds them.
  Trace quiet(pinning::inter_node(clusters::xeon_rwth(), 2), {1e-7, 1e-6, 5e-6}, "pending");
  quiet.intern_region("work");
  for (Rank r = 0; r < 2; ++r) {
    for (int j = 0; j < 100; ++j) quiet.events(r).push_back(local_event(j * 1e-3));
  }
  StreamClcOptions quiet_opt;
  quiet_opt.emit_batch = 4;
  const auto [quiet_held, quiet_window] = pending_reasons(quiet, quiet_opt);
  EXPECT_EQ(quiet_held, 0);
  EXPECT_GT(quiet_window, 0);
}

// Regression: when the final rename failed, the sealed temporary output
// (<out>.tmp) stayed on disk.  Every file the run created must be gone after
// any error, and the output path itself must be left as it was.
TEST(ClcStream, FailedMergeLeavesNoTempFile) {
  const ScratchDir scratch(testing::TempDir());
  const Trace trace = sweep_fixture(13, /*rounds=*/10);
  const std::string in_path = scratch.file("merge_in.cstr");
  write_trace_v2_file(trace, in_path, /*events_per_chunk=*/64);
  // A directory at the output path makes the rename into place fail.
  const std::string out_path = scratch.file("merge_out.cstr");
  std::filesystem::create_directory(out_path);

  try {
    clc_stream_file(in_path, out_path);
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_EQ(e.kind(), TraceIoErrorKind::Io) << e.what();
  }
  for (const char* suffix : {".tmp", ".ts-spill", ".msg-spill"}) {
    EXPECT_FALSE(std::filesystem::exists(out_path + suffix)) << suffix << " left behind";
  }
  EXPECT_TRUE(std::filesystem::is_directory(out_path));
  EXPECT_TRUE(std::filesystem::is_empty(out_path));
}

// Regression: std::ifstream opens a directory and then reads it as an empty
// stream, so every file entry point reported a directory as a truncated trace
// instead of an unopenable path.
TEST(ClcStream, DirectoryInputIsIoErrorAtEveryFileEntryPoint) {
  const ScratchDir scratch(testing::TempDir());
  const std::string dir = scratch.file("not_a_trace");
  std::filesystem::create_directory(dir);
  const std::string out_path = scratch.file("out.cstr");

  using testutil::error_of;
  EXPECT_EQ(error_of([&] { read_trace_v2_file(dir); }), TraceIoErrorKind::Io);
  EXPECT_EQ(error_of([&] { scan_clock_condition_file(dir); }), TraceIoErrorKind::Io);
  EXPECT_EQ(error_of([&] { clc_stream_file(dir, out_path); }), TraceIoErrorKind::Io);
  // Only the input directory remains: no output, temporary or spill file.
  std::vector<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(scratch.path())) {
    left.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(left, std::vector<std::string>{"not_a_trace"});
}

TEST(ClcStream, MissingInputThrowsIoError) {
  const ScratchDir scratch(testing::TempDir());
  try {
    clc_stream_file("/nonexistent/in.cstr", scratch.file("unused.cstr"), {});
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_EQ(e.kind(), TraceIoErrorKind::Io);
  }
}

}  // namespace
}  // namespace chronosync
