#include <gtest/gtest.h>

#include <bit>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "common/scratch_dir.hpp"
#include "sync/clc.hpp"
#include "sync/clc_stream.hpp"
#include "sync/replay.hpp"
#include "topology/cluster.hpp"
#include "trace/logical_messages.hpp"
#include "trace/stream_io.hpp"
#include "verify/differential.hpp"
#include "workload/smg2000.hpp"
#include "workload/sweep.hpp"

namespace chronosync {
namespace {

// The windowed streaming CLC promises bit-identical output to the in-memory
// CLC whenever its divergence counters stay zero.  cross_check_windowed_clc
// asserts exactly that; here it runs over real workload traces (message +
// collective traffic, genuine drift-induced violations) and over several
// option points, so the sanitizer suite sweeps the whole streaming engine.

std::vector<std::string> check(const Trace& trace, StreamClcOptions opt) {
  std::vector<std::string> failures;
  const std::size_t n = verify::cross_check_windowed_clc(trace, testing::TempDir(), opt, failures);
  EXPECT_GT(n, 1u);
  return failures;
}

TEST(WindowedClc, SweepWorkloadMatchesInMemory) {
  SweepConfig cfg;
  cfg.rounds = 25;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::intel_tsc();
  job.seed = 17;
  const Trace trace = run_sweep(cfg, std::move(job)).trace;

  StreamClcOptions opt;
  opt.emit_batch = 24;  // small batches: exercise interim sweeps + finality rules
  opt.backward_window = 1e3;  // above every ramp: the run must be divergence-free
  for (const std::string& f : check(trace, opt)) ADD_FAILURE() << f;
}

TEST(WindowedClc, CollectiveHeavyWorkloadMatchesInMemory) {
  SmgConfig cfg;
  cfg.px = 4;
  cfg.py = 2;
  cfg.levels = 3;
  cfg.iterations = 2;
  cfg.setup_exchanges = 1;
  cfg.level_compute = 100 * units::us;
  cfg.pre_sleep = 0.5;
  cfg.post_sleep = 0.5;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 8);
  job.timer = timer_specs::intel_tsc();
  job.seed = 23;
  const Trace trace = run_smg(cfg, std::move(job)).trace;

  StreamClcOptions opt;
  opt.emit_batch = 16;
  opt.backward_window = 1e3;
  for (const std::string& f : check(trace, opt)) ADD_FAILURE() << f;
  StreamClcOptions no_ba;
  no_ba.clc.backward_amortization = false;
  no_ba.emit_batch = 16;
  for (const std::string& f : check(trace, no_ba)) ADD_FAILURE() << f;
}

/// A collective-heavy trace whose clocks disagree: each of 400 rounds every
/// rank joins one collective, of a kind cycling through all eight with a
/// rotating root, then passes a message to its right-hand neighbour.  Even
/// ranks' clocks run 250 us behind, odd ranks' ahead, so receives and
/// collective ends precede their sources in local time.  The timestamps come
/// from the integer generator and additions only, so the trace is the same
/// on every platform.
Trace collective_fixture() {
  constexpr int kRanks = 6;
  constexpr int kRounds = 400;
  Rng rng(2026);
  Trace t(pinning::inter_node(clusters::xeon_rwth(), kRanks), {1e-7, 1e-6, 5e-6}, "fixture");
  for (int k = 0; k < kRounds; ++k) {
    const auto kind = static_cast<CollectiveKind>(k % 8);
    const Rank root = k % kRanks;
    for (Rank r = 0; r < kRanks; ++r) {
      const Time round = 1e-3 * k;
      const Time offset = r % 2 == 0 ? -2.5e-4 : 2.5e-4;
      auto at = [&](EventType type, Time step) {
        Event e;
        e.type = type;
        e.true_ts = round + step + 5e-5 * rng.uniform();
        e.local_ts = e.true_ts + offset;
        return e;
      };
      Event begin = at(EventType::CollBegin, 0.0);
      Event end = at(EventType::CollEnd, 2e-4);
      for (Event* e : {&begin, &end}) {
        e->coll = kind;
        e->coll_id = k;
        e->root = root;
      }
      Event send = at(EventType::Send, 4e-4);
      send.peer = (r + 1) % kRanks;
      send.msg_id = std::int64_t{k} * kRanks + r;
      Event recv = at(EventType::Recv, 6e-4);
      recv.peer = (r + kRanks - 1) % kRanks;
      recv.msg_id = std::int64_t{k} * kRanks + recv.peer;
      for (const Event& e : {begin, end, send, recv}) t.events(r).push_back(e);
    }
  }
  return t;
}

/// What one clc_stream_file run leaves: the output's size and CRC32C, and
/// every field of its stats, timestamps as bit patterns.
struct StreamRun {
  std::size_t bytes = 0;
  std::uint32_t crc = 0;
  std::uint64_t events = 0, p2p_edges = 0, logical_edges = 0, repaired = 0;
  std::uint64_t max_jump_bits = 0, total_jump_bits = 0;
  std::uint64_t ramp_clamped = 0, horizon_dropped = 0, forced = 0;
  std::size_t peak_resident = 0, peak_msgs = 0;

  bool operator==(const StreamRun&) const = default;
};

std::ostream& operator<<(std::ostream& os, const StreamRun& r) {
  return os << "bytes " << r.bytes << " crc " << std::hex << r.crc << " max_jump "
            << r.max_jump_bits << " total_jump " << r.total_jump_bits << std::dec << " events "
            << r.events << " p2p " << r.p2p_edges << " logical " << r.logical_edges
            << " repaired " << r.repaired << " divergences " << r.ramp_clamped << '/'
            << r.horizon_dropped << '/' << r.forced << " peaks " << r.peak_resident << '/'
            << r.peak_msgs;
}

StreamRun stream_run(const std::string& in, const std::string& out,
                     const StreamClcOptions& opt) {
  const StreamClcStats st = clc_stream_file(in, out, opt);
  std::ifstream f(out, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(f)), {});
  return {bytes.size(),
          crc32c(0, bytes.data(), bytes.size()),
          st.events,
          st.p2p_edges,
          st.logical_edges,
          st.violations_repaired,
          std::bit_cast<std::uint64_t>(st.max_jump),
          std::bit_cast<std::uint64_t>(st.total_jump),
          st.ramp_clamped,
          st.horizon_dropped,
          st.forced,
          st.peak_resident_events,
          st.peak_outstanding_msgs};
}

// The read-ahead keeps 24-byte EdgeRecords, decoded straight into it, where
// it kept 64-byte Events copied from a decoded chunk.  The golden values
// below were recorded with the Event read-ahead: the output bytes, the jump
// statistics and the window high-water marks must not move.  The one
// exception is total_jump, recorded with clc_kernel::JumpTotal's per-rank
// fold; the in-memory driver must reach the same bits.  Small chunks interleave
// the ranks finely; a short horizon and window let collectives close and
// entries emit while reading, so the window stays small.
TEST(WindowedClc, CompactReadAheadKeepsOutputAndStats) {
  constexpr std::uint64_t kTotalJumpBits = 0x3FAF24EBAC5FFE85ull;
  const ScratchDir scratch(testing::TempDir());
  const std::string in = scratch.file("in.v2");
  const std::string out = scratch.file("out.v2");
  const Trace fixture = collective_fixture();
  write_trace_v2_file(fixture, in, /*events_per_chunk=*/64);

  const ReplaySchedule schedule(fixture, fixture.match_messages(),
                                derive_logical_messages(fixture));
  const ClcResult mem =
      controlled_logical_clock(fixture, schedule, TimestampArray::from_local(fixture));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(mem.total_jump), kTotalJumpBits);

  StreamClcOptions windowed;
  windowed.emit_batch = 16;
  windowed.horizon = 5e-3;
  windowed.backward_window = 2e-2;
  EXPECT_EQ(stream_run(in, out, windowed),
            (StreamRun{251307, 0x98881CCFu, 9600, 2400, 7000, 1747, 0x3F363C7A10A80B9Full,
                       kTotalJumpBits, 0, 0, 0, 1152, 128}));

  StreamClcOptions no_ba = windowed;
  no_ba.backward_window = StreamClcOptions{}.backward_window;
  no_ba.clc.backward_amortization = false;
  EXPECT_EQ(stream_run(in, out, no_ba),
            (StreamRun{251319, 0x72A454B2u, 9600, 2400, 7000, 1747, 0x3F363C7A10A80B9Full,
                       kTotalJumpBits, 0, 0, 0, 576, 128}));

  // Default options: a 10 s horizon outlasts the 0.4 s trace, so every
  // event and message stays resident until the end.
  EXPECT_EQ(stream_run(in, out, {}),
            (StreamRun{251307, 0x98881CCFu, 9600, 2400, 7000, 1747, 0x3F363C7A10A80B9Full,
                       kTotalJumpBits, 0, 0, 0, 9600, 2400}));
}

/// Message 7 is sent twice, by rank 0 at 1.0 and by rank 1 at 0.5; rank 2
/// receives it at 0.7.  The in-memory join, rank-major, pairs the receive
/// with rank 0's send; the frontier-order join of the windowed CLC reads
/// rank 1's send first.  Rank 0's receive of message 9 (sent by rank 1)
/// keeps rank 0 behind rank 1 in the frontier.
Trace repeated_send_id() {
  Trace t(pinning::inter_node(clusters::xeon_rwth(), 3), {1e-7, 1e-6, 5e-6}, "repeated-id");
  const auto message = [&](Rank r, EventType type, Rank peer, std::int64_t id, Time ts) {
    Event e;
    e.type = type;
    e.peer = peer;
    e.msg_id = id;
    e.local_ts = e.true_ts = ts;
    t.events(r).push_back(e);
  };
  message(0, EventType::Recv, 1, 9, 0.0);
  message(0, EventType::Send, 2, 7, 1.0);
  message(1, EventType::Send, 2, 7, 0.5);
  message(1, EventType::Send, 0, 9, 0.6);
  message(2, EventType::Recv, 0, 7, 0.7);
  return t;
}

TEST(WindowedClc, RepeatedMessageIdIsCountedAsDivergence) {
  // The two joins pair message 7 differently, so the outputs differ; the
  // windowed CLC must say so instead of reporting a divergence-free run.
  StreamClcOptions opt;
  opt.backward_window = 1e4;
  const ScratchDir scratch(testing::TempDir());
  const std::string in = scratch.file("in.v2");
  write_trace_v2_file(repeated_send_id(), in);
  const StreamClcStats st = clc_stream_file(in, scratch.file("out.v2"), opt);
  EXPECT_EQ(st.repeated_ids, 1u);
  EXPECT_EQ(st.ramp_clamped + st.horizon_dropped + st.forced, 0u);

  const std::vector<std::string> failures = check(repeated_send_id(), opt);
  ASSERT_FALSE(failures.empty());
  EXPECT_NE(failures[0].find("repeated_ids=1"), std::string::npos) << failures[0];
}

/// Collective 7 is a Bcast rooted at rank 0 in rank 0's events and an
/// Allreduce in rank 1's.  The in-memory trace takes the kind of rank 1, last
/// in rank-major order, so rank 1's begin at 6 ms constrains rank 0's end at
/// 5.001 ms.  Cut into two-event chunks, the file reads rank 0's collective
/// last, so the windowed CLC takes the Bcast, whose one edge is already met.
Trace collective_kind_conflict() {
  Trace t(pinning::inter_node(clusters::xeon_rwth(), 2), {1e-7, 1e-6, 5e-6}, "kind-conflict");
  const auto event = [&](Rank r, EventType type, Time ts, CollectiveKind kind = {}) {
    Event e;
    e.type = type;
    e.local_ts = e.true_ts = ts;
    if (type == EventType::CollBegin || type == EventType::CollEnd) {
      e.coll = kind;
      e.coll_id = 7;
      e.root = 0;
    }
    t.events(r).push_back(e);
  };
  event(0, EventType::Enter, 0.0);
  event(0, EventType::Exit, 1e-3);
  event(0, EventType::CollBegin, 5e-3, CollectiveKind::Bcast);
  event(0, EventType::CollEnd, 5.001e-3, CollectiveKind::Bcast);
  event(1, EventType::CollBegin, 6e-3, CollectiveKind::Allreduce);
  event(1, EventType::CollEnd, 6.001e-3, CollectiveKind::Allreduce);
  event(1, EventType::Enter, 7e-3);
  event(1, EventType::Exit, 8e-3);
  return t;
}

TEST(WindowedClc, CollectiveKindConflictIsCountedAsDivergence) {
  const Trace t = collective_kind_conflict();
  const ScratchDir scratch(testing::TempDir());
  const std::string in = scratch.file("in.v2");
  const std::string out = scratch.file("out.v2");
  write_trace_v2_file(t, in, /*events_per_chunk=*/2);
  const StreamClcStats st = clc_stream_file(in, out);
  EXPECT_EQ(st.kind_conflicts, 1u);
  EXPECT_EQ(st.ramp_clamped + st.horizon_dropped + st.forced + st.repeated_ids, 0u);

  // The counter is needed: the outputs do differ.
  const ReplaySchedule schedule(t, t.match_messages(), derive_logical_messages(t));
  const ClcResult mem = controlled_logical_clock(t, schedule, TimestampArray::from_local(t));
  EXPECT_EQ(mem.violations_repaired, 1u);
  EXPECT_EQ(st.violations_repaired, 0u);
  const Trace streamed = read_trace_v2_file(out);
  int differing = 0;
  for (Rank r = 0; r < t.ranks(); ++r) {
    for (std::size_t i = 0; i < t.events(r).size(); ++i) {
      differing += std::bit_cast<std::uint64_t>(streamed.events(r)[i].local_ts) !=
                   std::bit_cast<std::uint64_t>(mem.corrected.of_rank(r)[i]);
    }
  }
  EXPECT_GT(differing, 0);

  const std::vector<std::string> failures = check(t, {});
  ASSERT_FALSE(failures.empty());
  EXPECT_NE(failures[0].find("kind_conflicts=1"), std::string::npos) << failures[0];
}

TEST(WindowedClc, SeenSetPastItsBudgetIsCountedAsDivergence) {
  // Two messages 2^15 ids apart need two seen-set pages, past the budget of
  // a 4-event trace (one page).  Their ids are unique, so the outputs agree,
  // but the run can no longer prove it and must say so, once.
  Trace t(pinning::inter_node(clusters::xeon_rwth(), 2), {1e-7, 1e-6, 5e-6}, "sparse-ids");
  for (const std::int64_t id : {std::int64_t{0}, std::int64_t{1} << 15}) {
    Event send;
    send.type = EventType::Send;
    send.peer = 1;
    send.msg_id = id;
    send.local_ts = send.true_ts = 0.1 + 1e-6 * static_cast<double>(id);
    t.events(0).push_back(send);
    Event recv = send;
    recv.type = EventType::Recv;
    recv.peer = 0;
    recv.local_ts = recv.true_ts = send.local_ts + 0.5;
    t.events(1).push_back(recv);
  }
  StreamClcOptions opt;
  opt.backward_window = 1e4;
  const std::vector<std::string> failures = check(t, opt);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("repeated_ids=1"), std::string::npos) << failures[0];
}

TEST(WindowedClc, ConcurrentCrossChecksShareOneWorkDir) {
  // Regression: the cross-check used fixed scratch names inside work_dir, so
  // concurrent runs sharing it (ctest -j, parallel chronocheck) overwrote
  // each other's trace and spill files.  Two at once must both stay clean
  // and leave nothing behind.
  SweepConfig cfg;
  cfg.rounds = 40;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::intel_tsc();
  job.seed = 31;
  const Trace trace = run_sweep(cfg, std::move(job)).trace;
  StreamClcOptions opt;
  opt.emit_batch = 16;
  opt.backward_window = 1e3;

  const std::filesystem::path work =
      std::filesystem::path(testing::TempDir()) / "windowed_clc_concurrent";
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);
  std::vector<std::string> failures[2];
  {
    std::vector<std::thread> runs;
    for (auto& f : failures) {
      runs.emplace_back([&] {
        try {
          verify::cross_check_windowed_clc(trace, work.string(), opt, f);
        } catch (const std::exception& e) {
          f.push_back(e.what());
        }
      });
    }
    for (auto& t : runs) t.join();
  }
  for (const auto& f : failures) {
    for (const std::string& msg : f) ADD_FAILURE() << msg;
  }
  EXPECT_TRUE(std::filesystem::is_empty(work));
  std::filesystem::remove_all(work);
}

}  // namespace
}  // namespace chronosync
