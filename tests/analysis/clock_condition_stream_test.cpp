#include "analysis/clock_condition_stream.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "../testutil/error_of.hpp"
#include "../testutil/random_trace.hpp"
#include "../testutil/unseekable_buf.hpp"
#include "common/scratch_dir.hpp"
#include "analysis/clock_condition.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "topology/cluster.hpp"
#include "trace/stream_io.hpp"
#include "trace/trace_io_error.hpp"
#include "verify/clock_condition_oracle.hpp"
#include "workload/sweep.hpp"

namespace chronosync {
namespace {

using testutil::error_of;

/// The message-list oracle over the trace's local timestamps.
ClockConditionReport oracle(const Trace& t) {
  return verify::clock_condition_oracle(t, TimestampArray::from_local(t), t.match_messages(),
                                        derive_logical_messages(t));
}

/// Holds every scan entry point to one typed error on `blob`: the scan behind
/// a TraceReader over a seekable stream and over an unseekable one (a pipe),
/// and scan_clock_condition_file.
void expect_every_scan_throws(const std::string& blob, TraceIoErrorKind want,
                              const std::string& what) {
  auto scan = [](std::istream& in) {
    TraceReader reader(in);
    scan_clock_condition(reader);
  };
  std::stringstream seekable(blob);
  EXPECT_EQ(error_of([&] { scan(seekable); }), want) << what << ", seekable stream";
  testutil::UnseekableStringBuf pipe_buf(blob);
  std::istream pipe(&pipe_buf);
  EXPECT_EQ(error_of([&] { scan(pipe); }), want) << what << ", unseekable stream";

  const ScratchDir scratch(testing::TempDir());
  const std::string path = scratch.file("input");
  std::ofstream(path, std::ios::binary)
      .write(blob.data(), static_cast<std::streamsize>(blob.size()));
  EXPECT_EQ(error_of([&] { scan_clock_condition_file(path); }), want) << what << ", file";
}

TEST(ClockConditionStream, RealWorkloadStreamedEqualsInMemory) {
  // A sweep run produces a trace with real message and collective traffic.
  SweepConfig cfg;
  cfg.rounds = 30;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::intel_tsc();
  job.seed = 5;
  AppRunResult res = run_sweep(cfg, std::move(job));

  std::stringstream buf;
  write_trace_v2(res.trace, buf, /*events_per_chunk=*/64);
  TraceReader reader(buf);
  const auto streamed = scan_clock_condition(reader);
  const auto in_memory = oracle(res.trace);
  EXPECT_GT(streamed.p2p_messages, 0u);
  EXPECT_EQ(streamed, in_memory);
}

TEST(ClockConditionStream, V2FileIsScannedStreamed) {
  const ScratchDir scratch(testing::TempDir());
  const std::string path = scratch.file("v2.bin");
  const Trace t = testutil::random_trace(9);
  write_trace_v2_file(t, path);
  const auto streamed = scan_clock_condition_file(path);
  const auto in_memory = oracle(t);
  EXPECT_EQ(streamed, in_memory);
}

TEST(ClockConditionStream, TextAndForeignInputIsBadMagic) {
  // v2 is the only container: a CSTXT text trace, or any other input of at
  // least a header's 8 bytes that does not start with "CSTR", is a typed
  // error on every entry point and is never loaded into memory.
  expect_every_scan_throws(
      "CSTXT 1\nTIMER t\nLATENCY 1e-7 1e-6 5e-6\nRANK 0 0 0 0\n"
      "EV 0 ENTER 1.0 1.0 0 -1 -1 0 -1 0 -1 -1 -1 0\n",
      TraceIoErrorKind::BadMagic, "CSTXT text trace");
  expect_every_scan_throws("CSTXT 1\n", TraceIoErrorKind::BadMagic, "8-byte text header");
  expect_every_scan_throws(std::string(64, '\0'), TraceIoErrorKind::BadMagic, "64 zero bytes");
  expect_every_scan_throws("not a chronosync trace at all", TraceIoErrorKind::BadMagic,
                           "foreign text");
}

TEST(ClockConditionStream, NonV2BinaryHeaderIsBadVersion) {
  // Any "CSTR" header other than version 2 — the retired v1 container among
  // them — is a typed error on every entry point.
  for (const std::uint32_t version : {0u, 1u, 3u}) {
    const std::uint32_t header[2] = {kTraceMagic, version};
    const std::string blob(reinterpret_cast<const char*>(header), 8);
    const std::string what = "version " + std::to_string(version);
    expect_every_scan_throws(blob, TraceIoErrorKind::BadVersion, what);
    expect_every_scan_throws(blob + "trailing bytes", TraceIoErrorKind::BadVersion, what);
  }
}

TEST(ClockConditionStream, ShortInputIsTruncated) {
  // Fewer than the header's 8 bytes — empty, a tiny text file, or the start
  // of a real v2 header — is Truncated on every entry point, whatever the
  // bytes are.
  std::stringstream v2;
  write_trace_v2(testutil::random_trace(13), v2);
  const std::string v2_head = v2.str().substr(0, 8);
  for (std::size_t n = 0; n < 8; ++n) {
    expect_every_scan_throws(v2_head.substr(0, n), TraceIoErrorKind::Truncated,
                             std::to_string(n) + " bytes of a v2 header");
  }
  expect_every_scan_throws("CSTXT", TraceIoErrorKind::Truncated, "5-byte text file");
}

TEST(ClockConditionStream, BacklogHighWaterTracksPairDistanceNotMessageCount) {
  // Chain traffic: rank r sends kMsgs messages to rank r+1.  Each rank's
  // receives (retiring the previous hop) come before its sends (opening the
  // next hop), so while the completed-message total grows with every hop, at
  // most one hop's worth of entries is ever half-open.  Before messages were
  // erased eagerly, the map high-water equaled the total message count.
  constexpr int kRanks = 4;
  constexpr std::size_t kMsgs = 10;
  Trace t(pinning::block(clusters::xeon_rwth(), kRanks), {1e-7, 1e-6, 5e-6}, "chain");
  for (Rank r = 0; r < kRanks; ++r) {
    Time now = 1.0 + r;
    for (std::size_t i = 0; r > 0 && i < kMsgs; ++i) {
      Event e;
      e.type = EventType::Recv;
      e.peer = r - 1;
      e.msg_id = 1000 * (r - 1) + static_cast<std::int64_t>(i);
      e.local_ts = e.true_ts = now += 1e-4;
      t.events(r).push_back(e);
    }
    for (std::size_t i = 0; r + 1 < kRanks && i < kMsgs; ++i) {
      Event e;
      e.type = EventType::Send;
      e.peer = r + 1;
      e.msg_id = 1000 * r + static_cast<std::int64_t>(i);
      e.local_ts = e.true_ts = now += 1e-4;
      t.events(r).push_back(e);
    }
  }

  std::stringstream buf;
  write_trace_v2(t, buf);
  TraceReader reader(buf);
  ScanStats stats;
  const auto rep = scan_clock_condition(reader, &stats);
  EXPECT_EQ(rep.p2p_messages, (kRanks - 1) * kMsgs);
  EXPECT_EQ(stats.peak_outstanding_messages, kMsgs);
}

TEST(ClockConditionStream, PipeFedStreamsScanWithoutSeeking) {
  // An UnseekableStringBuf refuses to seek, like a pipe: the header check
  // and the scan must work without seeking.
  const Trace t = testutil::random_trace(12);
  std::stringstream v2;
  write_trace_v2(t, v2);
  testutil::UnseekableStringBuf pipe_buf(v2.str());
  std::istream pipe(&pipe_buf);
  TraceReader reader(pipe);
  EXPECT_EQ(scan_clock_condition(reader), oracle(t));
}

TEST(ClockConditionStream, DuplicateRootEventsAgreeWithInMemory) {
  // Malformed instances where the root rank recorded its collective twice:
  // both the streamed scanner and derive_logical_messages must pick the same
  // representative (the first recorded root event), so the reports agree.
  Trace t(pinning::block(clusters::xeon_rwth(), 3), {1e-7, 1e-6, 5e-6}, "dup-root");
  auto ev = [](EventType type, CollectiveKind kind, std::int64_t id, Time ts) {
    Event e;
    e.type = type;
    e.coll = kind;
    e.coll_id = id;
    e.root = 0;
    e.local_ts = e.true_ts = ts;
    return e;
  };
  // Bcast (OneToN), root begin duplicated: first-match begin at t=5.0 makes
  // both non-root ends (2.0, 2.5) reversed; last-wins (t=1.0) would make
  // neither.  Counts stay balanced (4 begins, 4 ends) so it is not partial.
  t.events(0).push_back(ev(EventType::CollBegin, CollectiveKind::Bcast, 1, 5.0));
  t.events(0).push_back(ev(EventType::CollBegin, CollectiveKind::Bcast, 1, 5.5));
  t.events(0).push_back(ev(EventType::CollEnd, CollectiveKind::Bcast, 1, 5.6));
  t.events(0).push_back(ev(EventType::CollEnd, CollectiveKind::Bcast, 1, 5.7));
  // Reduce (NToOne), root end duplicated: first-match end at t=6.5 precedes
  // the non-root begins (7.0), so both edges are reversed; last-wins (9.0)
  // would accept them.
  t.events(0).push_back(ev(EventType::CollBegin, CollectiveKind::Reduce, 2, 6.0));
  t.events(0).push_back(ev(EventType::CollBegin, CollectiveKind::Reduce, 2, 6.1));
  t.events(0).push_back(ev(EventType::CollEnd, CollectiveKind::Reduce, 2, 6.5));
  t.events(0).push_back(ev(EventType::CollEnd, CollectiveKind::Reduce, 2, 9.0));
  for (Rank r = 1; r < 3; ++r) {
    t.events(r).push_back(ev(EventType::CollBegin, CollectiveKind::Bcast, 1, 1.0));
    t.events(r).push_back(ev(EventType::CollEnd, CollectiveKind::Bcast, 1, 2.0 + 0.5 * r));
    t.events(r).push_back(ev(EventType::CollBegin, CollectiveKind::Reduce, 2, 7.0));
    t.events(r).push_back(ev(EventType::CollEnd, CollectiveKind::Reduce, 2, 7.5));
  }

  std::stringstream buf;
  write_trace_v2(t, buf);
  TraceReader reader(buf);
  const auto streamed = scan_clock_condition(reader);
  const auto in_memory = oracle(t);
  EXPECT_EQ(streamed, in_memory);
  // Pins first-match: the late duplicates would yield zero reversed edges.
  EXPECT_EQ(streamed.logical_reversed, 4u);
}

/// An event of `type` at local time `ts`; `id` is the msg_id of a send or
/// receive and the coll_id of a collective event.
Event event(EventType type, Time ts, std::int64_t id = -1) {
  Event e;
  e.type = type;
  e.local_ts = e.true_ts = ts;
  if (type == EventType::Send || type == EventType::Recv) e.msg_id = id;
  if (type == EventType::CollBegin || type == EventType::CollEnd) e.coll_id = id;
  return e;
}

Event collective(EventType type, Time ts, CollectiveKind kind, Rank root) {
  Event e = event(type, ts, /*id=*/1);
  e.coll = kind;
  e.root = root;
  return e;
}

/// scan_clock_condition_file over `t` written with `events_per_chunk`, with
/// the number of rank-major restarts it made.
struct FileScan {
  ClockConditionReport report;
  ScanStats stats;
  std::int64_t restarts = 0;
};

FileScan scan_file(const Trace& t, std::size_t events_per_chunk) {
  const ScratchDir scratch(testing::TempDir());
  const std::string path = scratch.file("scan.cstr");
  write_trace_v2_file(t, path, events_per_chunk);
  obs::set_level(obs::Level::Metrics);
  obs::reset();
  FileScan out;
  out.report = scan_clock_condition_file(path, &out.stats);
  out.restarts = obs::counter("analysis.scan.rank_major_restarts").value();
  obs::set_level(obs::Level::Off);
  obs::reset();
  return out;
}

TEST(ClockConditionStream, FileScanBacklogStaysWithinAFewChunks) {
  // A two-rank ring: each round, every rank sends to the other and then
  // receives from it.  Read rank-major, every message stays half-matched
  // until rank 1 is read, so the backlog is the whole message count.  Read
  // in frontier order, with the trace cut into many small chunks, a message
  // is paired within a chunk or two of its send.
  constexpr int kRanks = 2;
  constexpr int kRounds = 2000;
  constexpr std::size_t kEventsPerChunk = 16;
  Trace t(pinning::block(clusters::xeon_rwth(), kRanks), {1e-7, 1e-6, 5e-6}, "ring");
  for (int k = 0; k < kRounds; ++k) {
    for (Rank r = 0; r < kRanks; ++r) {
      const Rank from = (r + kRanks - 1) % kRanks;
      Event send = event(EventType::Send, 1e-3 * k, kRanks * k + r);
      send.peer = (r + 1) % kRanks;
      Event recv = event(EventType::Recv, 1e-3 * k + 5e-4, kRanks * k + from);
      recv.peer = from;
      t.events(r).push_back(send);
      t.events(r).push_back(recv);
    }
  }
  constexpr std::size_t kMessages = std::size_t{kRanks} * kRounds;

  const FileScan file = scan_file(t, kEventsPerChunk);
  EXPECT_EQ(file.report, oracle(t));
  EXPECT_EQ(file.report.p2p_messages, kMessages);
  EXPECT_EQ(file.restarts, 0);
  EXPECT_LE(file.stats.peak_outstanding_messages, 2 * kEventsPerChunk);

  std::stringstream buf;
  write_trace_v2(t, buf, kEventsPerChunk);
  TraceReader reader(buf);
  ScanStats rank_major;
  EXPECT_EQ(scan_clock_condition(reader, &rank_major), file.report);
  EXPECT_EQ(rank_major.peak_outstanding_messages, kMessages);
}

TEST(ClockConditionStream, FileScanOfRealWorkloadPairsInFrontierOrder) {
  // Simulated traffic has unique message ids, so the file scan keeps its
  // frontier order to the end and still equals the oracle, with a smaller
  // backlog than the rank-major scan.
  SweepConfig cfg;
  cfg.rounds = 40;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::intel_tsc();
  job.seed = 7;
  const AppRunResult res = run_sweep(cfg, std::move(job));

  const FileScan file = scan_file(res.trace, /*events_per_chunk=*/64);
  EXPECT_EQ(file.report, oracle(res.trace));
  EXPECT_EQ(file.restarts, 0);
  std::stringstream buf;
  write_trace_v2(res.trace, buf, /*events_per_chunk=*/64);
  TraceReader reader(buf);
  ScanStats rank_major;
  scan_clock_condition(reader, &rank_major);
  EXPECT_LT(file.stats.peak_outstanding_messages, rank_major.peak_outstanding_messages);
}

TEST(ClockConditionStream, RepeatedIdRestartsTheFileScanRankMajor) {
  // One msg_id with endpoints s0, r1, s2, r3.  Ranks 0 and 1 open with a
  // late local event, so frontier order reads s2 and r3 before s0 and r1;
  // the second send of the id makes the scan restart rank-major, whose
  // join pairs (s0, r1) and (s2, r3).
  Trace t(pinning::block(clusters::xeon_rwth(), 4), {1e-7, 1e-6, 5e-6}, "repeat");
  t.events(0).push_back(event(EventType::Enter, 10.0));
  t.events(0).push_back(event(EventType::Send, 11.0, 7));
  t.events(1).push_back(event(EventType::Enter, 10.0));
  t.events(1).push_back(event(EventType::Recv, 10.5, 7));  // before its send
  t.events(2).push_back(event(EventType::Send, 1.0, 7));
  t.events(3).push_back(event(EventType::Recv, 2.0, 7));

  const FileScan file = scan_file(t, /*events_per_chunk=*/1);
  EXPECT_EQ(file.report, oracle(t));
  EXPECT_EQ(file.report.p2p_messages, 2u);
  EXPECT_EQ(file.report.p2p_reversed, 1u);
  EXPECT_EQ(file.restarts, 1);
}

TEST(ClockConditionStream, SparseIdsRestartTheFileScanRankMajor) {
  // Unique ids, but 2^20 apart: each takes its own 8 KiB page of the
  // seen-set, past its budget of one byte per event (and at least one page),
  // so the file scan gives up frontier order instead of holding the pages.
  Trace t(pinning::block(clusters::xeon_rwth(), 2), {1e-7, 1e-6, 5e-6}, "sparse");
  for (int k = 0; k < 3; ++k) {
    const std::int64_t id = std::int64_t{k} << 20;
    t.events(0).push_back(event(EventType::Send, 1.0 + k, id));
    t.events(1).push_back(event(EventType::Recv, 1.5 + k, id));
  }
  const FileScan file = scan_file(t, /*events_per_chunk=*/1);
  EXPECT_EQ(file.report, oracle(t));
  EXPECT_EQ(file.report.p2p_messages, 3u);
  EXPECT_EQ(file.restarts, 1);
}

TEST(ClockConditionStream, MalformedCollectiveReadOutOfRankOrderAgreesWithOracle) {
  // One instance whose ranks disagree on kind and root.  Rank-major, rank 2
  // is read last, so its Bcast rooted at 0 decides; the root's first begin
  // (t=11, not its duplicate at t=20) feeds the non-root ends at t=13 and
  // t=2.  Ranks 0 and 1 open with a late local event, so frontier order
  // reads rank 2's begin first and a Reduce event of rank 0 last.
  Trace t(pinning::block(clusters::xeon_rwth(), 3), {1e-7, 1e-6, 5e-6}, "mixed");
  using K = CollectiveKind;
  t.events(0).push_back(event(EventType::Enter, 10.0));
  t.events(0).push_back(collective(EventType::CollBegin, 11.0, K::Reduce, 1));
  t.events(0).push_back(collective(EventType::CollBegin, 20.0, K::Reduce, 1));
  t.events(0).push_back(collective(EventType::CollEnd, 21.0, K::Reduce, 1));
  t.events(0).push_back(collective(EventType::CollEnd, 22.0, K::Reduce, 1));
  t.events(1).push_back(event(EventType::Enter, 10.0));
  t.events(1).push_back(collective(EventType::CollBegin, 11.5, K::Allreduce, 2));
  t.events(1).push_back(collective(EventType::CollEnd, 13.0, K::Allreduce, 2));
  t.events(2).push_back(collective(EventType::CollBegin, 1.0, K::Bcast, 0));
  t.events(2).push_back(collective(EventType::CollEnd, 2.0, K::Bcast, 0));

  const FileScan file = scan_file(t, /*events_per_chunk=*/1);
  EXPECT_EQ(file.report, oracle(t));
  EXPECT_EQ(file.report.logical_messages, 2u);
  EXPECT_EQ(file.report.logical_reversed, 1u);
  EXPECT_EQ(file.restarts, 0);
}

TEST(ClockConditionStream, NamedPipeIsScannedRankMajor) {
  // A named pipe opens like a file but cannot seek, so the file scan reads
  // it rank-major in one pass instead of indexing it first.
  const Trace t = testutil::random_trace(12);
  std::stringstream v2;
  write_trace_v2(t, v2);
  const std::string blob = v2.str();
  const ScratchDir scratch(testing::TempDir());
  const std::string path = scratch.file("pipe");
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream(path, std::ios::binary)
        .write(blob.data(), static_cast<std::streamsize>(blob.size()));
  });
  ClockConditionReport rep;
  const std::optional<TraceIoErrorKind> error =
      error_of([&] { rep = scan_clock_condition_file(path); });
  writer.join();
  EXPECT_EQ(error, std::nullopt);
  EXPECT_EQ(rep, oracle(t));
}

TEST(ClockConditionStream, MissingFileThrowsIoError) {
  try {
    scan_clock_condition_file("/nonexistent/path/stream.bin");
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_EQ(e.kind(), TraceIoErrorKind::Io);
  }
}

}  // namespace
}  // namespace chronosync
