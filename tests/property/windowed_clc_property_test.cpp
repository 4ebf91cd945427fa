// Property: the windowed streaming CLC's divergence counters are complete.
// Whenever all of them read zero, its output is bit-identical to the
// in-memory CLC — timestamps and jump statistics — on random traces, whose
// receives repeat message ids and whose collectives mix kinds and roots
// (each mix a kind conflict).
#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "../testutil/random_trace.hpp"
#include "common/scratch_dir.hpp"
#include "sync/clc.hpp"
#include "sync/clc_stream.hpp"
#include "sync/replay.hpp"
#include "trace/logical_messages.hpp"
#include "trace/stream_io.hpp"

namespace chronosync {
namespace {

TEST(WindowedClcProperty, ZeroDivergenceCountersMeanBitIdenticalOutput) {
  StreamClcOptions opt;
  opt.backward_window = 1e4;  // above every ramp of a trace shorter than 2 s
  opt.emit_batch = 8;
  const ScratchDir scratch(testing::TempDir());
  const std::string in = scratch.file("in.v2");
  const std::string out = scratch.file("out.v2");
  int exact = 0;
  int repeated = 0;
  int conflicted = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    const Trace t = testutil::random_trace(seed);
    write_trace_v2_file(t, in, /*events_per_chunk=*/8);
    const StreamClcStats st = clc_stream_file(in, out, opt);
    if (st.repeated_ids != 0) ++repeated;
    if (st.kind_conflicts != 0) ++conflicted;
    if (st.ramp_clamped + st.horizon_dropped + st.forced + st.repeated_ids + st.kind_conflicts !=
        0) {
      continue;
    }
    ++exact;

    const ReplaySchedule schedule(t, t.match_messages(), derive_logical_messages(t));
    const ClcResult mem =
        controlled_logical_clock(t, schedule, TimestampArray::from_local(t), opt.clc);
    const Trace streamed = read_trace_v2_file(out);
    for (Rank r = 0; r < t.ranks(); ++r) {
      const auto& lc = mem.corrected.of_rank(r);
      for (std::size_t i = 0; i < lc.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(streamed.events(r)[i].local_ts),
                  std::bit_cast<std::uint64_t>(lc[i]))
            << "seed " << seed << " rank " << r << " event " << i;
      }
    }
    EXPECT_EQ(st.violations_repaired, mem.violations_repaired) << "seed " << seed;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(st.max_jump), std::bit_cast<std::uint64_t>(mem.max_jump))
        << "seed " << seed;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(st.total_jump),
              std::bit_cast<std::uint64_t>(mem.total_jump))
        << "seed " << seed;
  }
  // Both sides of the implication must be exercised.
  EXPECT_GT(exact, 20);
  EXPECT_GT(repeated, 1000);
  EXPECT_GT(conflicted, 1000);
}

}  // namespace
}  // namespace chronosync
