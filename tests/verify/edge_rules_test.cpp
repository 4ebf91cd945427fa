// The Eq. 1 edge rules (trace/edge_rules.hpp) are shared by every scanner and
// every CLC path, so the scanner cross-checks can no longer catch a wrong rule
// on their own.  These tests pin the rules from outside: regression traces run
// through all consumers, and a brute-force oracle written here from the
// definition of the collective flavours.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "../testutil/random_trace.hpp"
#include "analysis/clock_condition.hpp"
#include "analysis/clock_condition_stream.hpp"
#include "common/rng.hpp"
#include "common/scratch_dir.hpp"
#include "sync/clc.hpp"
#include "sync/clc_stream.hpp"
#include "topology/cluster.hpp"
#include "trace/logical_messages.hpp"
#include "trace/stream_io.hpp"
#include "verify/differential.hpp"

namespace chronosync {
namespace {

Event p2p(EventType type, std::int64_t id, Rank peer, Time ts) {
  Event e;
  e.type = type;
  e.msg_id = id;
  e.peer = peer;
  e.local_ts = e.true_ts = ts;
  return e;
}

Event coll(EventType type, CollectiveKind kind, std::int64_t id, Rank root, Time ts) {
  Event e;
  e.type = type;
  e.coll = kind;
  e.coll_id = id;
  e.root = root;
  e.local_ts = e.true_ts = ts;
  return e;
}

void expect_reports_equal(const ClockConditionReport& a, const ClockConditionReport& b) {
  EXPECT_EQ(a.p2p_messages, b.p2p_messages);
  EXPECT_EQ(a.p2p_reversed, b.p2p_reversed);
  EXPECT_EQ(a.p2p_violations, b.p2p_violations);
  EXPECT_TRUE(testutil::same_bits(a.p2p_worst, b.p2p_worst));
  EXPECT_EQ(a.logical_messages, b.logical_messages);
  EXPECT_EQ(a.logical_reversed, b.logical_reversed);
  EXPECT_EQ(a.logical_violations, b.logical_violations);
  EXPECT_TRUE(testutil::same_bits(a.logical_worst, b.logical_worst));
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.message_events, b.message_events);
}

/// Streams `trace` through clc_stream_file and requires the in-memory CLC's
/// output bit for bit.
void expect_windowed_clc_matches(const Trace& trace, std::size_t expect_repaired) {
  const ScratchDir scratch(testing::TempDir());
  const std::string in_path = scratch.file("in.cstr");
  const std::string out_path = scratch.file("out.cstr");
  write_trace_v2_file(trace, in_path);
  const StreamClcStats stats = clc_stream_file(in_path, out_path, {});

  const ReplaySchedule schedule(trace, trace.match_messages(), derive_logical_messages(trace));
  const ClcResult mem = controlled_logical_clock(trace, schedule, TimestampArray::from_local(trace));
  EXPECT_EQ(stats.violations_repaired, expect_repaired);
  EXPECT_EQ(mem.violations_repaired, expect_repaired);
  EXPECT_TRUE(testutil::same_bits(stats.max_jump, mem.max_jump));
  EXPECT_TRUE(testutil::same_bits(stats.total_jump, mem.total_jump));
  const Trace out = read_trace_v2_file(out_path);
  for (Rank r = 0; r < trace.ranks(); ++r) {
    const auto& lc = mem.corrected.of_rank(r);
    ASSERT_EQ(out.events(r).size(), lc.size());
    for (std::size_t i = 0; i < lc.size(); ++i) {
      EXPECT_TRUE(testutil::same_bits(out.events(r)[i].local_ts, lc[i]))
          << "rank " << r << " event " << i << ": " << out.events(r)[i].local_ts << " vs "
          << lc[i];
    }
  }
}

TEST(EdgeRules, SelfMessageHasZeroLatencyInEveryConsumer) {
  // Rank 0 messages itself (legal in MPI) and sends rank 1 a message whose
  // receive is recorded before its send: one Eq. 1 violation to repair.
  Trace t(pinning::inter_node(clusters::xeon_rwth(), 2), {1e-7, 1e-6, 5e-6}, "self");
  t.events(0).push_back(p2p(EventType::Send, 1, 0, 1.0));
  t.events(0).push_back(p2p(EventType::Recv, 1, 0, 1.5));
  t.events(0).push_back(p2p(EventType::Send, 2, 1, 2.0));
  t.events(1).push_back(p2p(EventType::Recv, 2, 0, 1.9));
  t.events(1).push_back(p2p(EventType::Send, 3, 0, 2.5));
  t.events(0).push_back(p2p(EventType::Recv, 3, 1, 3.0));

  const TimestampArray local = TimestampArray::from_local(t);
  const ReplaySchedule schedule(t, t.match_messages(), derive_logical_messages(t));
  const ClockConditionReport full = check_clock_condition(t, local);
  const ClockConditionReport csr = check_clock_condition(t, local, schedule);
  std::stringstream v2;
  write_trace_v2(t, v2);
  TraceReader reader(v2);
  const ClockConditionReport streamed = scan_clock_condition(reader);
  EXPECT_EQ(full.p2p_messages, 3u);
  EXPECT_EQ(full.p2p_violations, 1u);
  expect_reports_equal(full, csr);
  expect_reports_equal(full, streamed);

  expect_windowed_clc_matches(t, 1);

  std::vector<std::string> failures;
  verify::cross_check_scans(t, schedule, failures);
  EXPECT_TRUE(failures.empty()) << failures.front();
}

TEST(EdgeRules, WindowedClcGivesNonRootReduceEndsNoEdges) {
  // One chunk per rank: the instance closes when the last rank is read, so
  // rank 2's non-root end is processed after closure.  N-to-1 edges enter the
  // root's end only; the non-root ends must stay edge-free there too.
  Trace t(pinning::inter_node(clusters::xeon_rwth(), 3), {1e-7, 1e-6, 5e-6}, "reduce");
  t.events(0).push_back(coll(EventType::CollBegin, CollectiveKind::Reduce, 7, 0, 1.0));
  t.events(0).push_back(coll(EventType::CollEnd, CollectiveKind::Reduce, 7, 0, 1.2));
  for (Rank r = 1; r < 3; ++r) {
    t.events(r).push_back(coll(EventType::CollBegin, CollectiveKind::Reduce, 7, 0, 1.0));
    t.events(r).push_back(coll(EventType::CollEnd, CollectiveKind::Reduce, 7, 0, 1.0 + 1e-7));
  }
  expect_windowed_clc_matches(t, 0);
}

// -- flavour rule vs a brute-force oracle ---------------------------------------

using Edge = std::tuple<Rank, std::uint32_t, Rank, std::uint32_t, std::int64_t>;

/// The logical edges of `t`, computed straight from the definition of the
/// CLC collective flavours: instances grouped by coll_id, partial ones
/// (no begins, or unequal begin and end counts) skipped, roots looked up
/// first-match in rank-major order.
std::vector<Edge> oracle_edges(const Trace& t) {
  struct Inst {
    CollectiveKind kind{};
    Rank root = -1;
    std::vector<EventRef> begins, ends;
  };
  std::vector<std::pair<std::int64_t, Inst>> insts;
  for (Rank r = 0; r < t.ranks(); ++r) {
    for (std::uint32_t i = 0; i < t.events(r).size(); ++i) {
      const Event& e = t.events(r)[i];
      if (e.type != EventType::CollBegin && e.type != EventType::CollEnd) continue;
      auto it = std::find_if(insts.begin(), insts.end(),
                             [&](const auto& p) { return p.first == e.coll_id; });
      if (it == insts.end()) it = insts.insert(insts.end(), {e.coll_id, Inst{}});
      it->second.kind = e.coll;
      it->second.root = e.root;
      (e.type == EventType::CollBegin ? it->second.begins : it->second.ends).push_back({r, i});
    }
  }
  std::vector<Edge> out;
  for (const auto& [id, inst] : insts) {
    if (inst.begins.empty() || inst.begins.size() != inst.ends.size()) continue;
    auto first_of = [&](const std::vector<EventRef>& refs) -> const EventRef* {
      for (const EventRef& ref : refs) {
        if (ref.proc == inst.root) return &ref;
      }
      return nullptr;
    };
    auto add = [&](const EventRef& b, const EventRef& e) {
      out.emplace_back(b.proc, b.index, e.proc, e.index, id);
    };
    switch (inst.kind) {
      case CollectiveKind::Bcast:
      case CollectiveKind::Scatter:
        if (const EventRef* b = first_of(inst.begins)) {
          for (const EventRef& e : inst.ends) {
            if (e.proc != inst.root) add(*b, e);
          }
        }
        break;
      case CollectiveKind::Reduce:
      case CollectiveKind::Gather:
        if (const EventRef* e = first_of(inst.ends)) {
          for (const EventRef& b : inst.begins) {
            if (b.proc != inst.root) add(b, *e);
          }
        }
        break;
      case CollectiveKind::Barrier:
      case CollectiveKind::Allreduce:
      case CollectiveKind::Allgather:
      case CollectiveKind::Alltoall:
        for (const EventRef& b : inst.begins) {
          for (const EventRef& e : inst.ends) {
            if (b.proc != e.proc) add(b, e);
          }
        }
        break;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Random collective instances over every kind: random roots (sometimes a
/// rank that never takes part), ranks recording a begin or end twice, and
/// partial instances with a missing or extra event.
Trace random_collectives(std::uint64_t seed) {
  Rng rng(seed);
  const int ranks = static_cast<int>(rng.uniform_int(2, 5));
  Trace t(pinning::block(clusters::xeon_rwth(), ranks), {1e-7, 1e-6, 5e-6}, "flavours");
  std::vector<Time> now(static_cast<std::size_t>(ranks), 0.0);
  const int instances = static_cast<int>(rng.uniform_int(1, 4));
  for (int k = 0; k < instances; ++k) {
    const auto kind = static_cast<CollectiveKind>(rng.uniform_int(0, 7));
    std::vector<Rank> members;
    for (Rank r = 0; r < ranks; ++r) {
      if (rng.bernoulli(0.8)) members.push_back(r);
    }
    Rank root = static_cast<Rank>(rng.uniform_int(0, ranks - 1));
    if (rng.bernoulli(0.2)) {
      for (Rank r = 0; r < ranks; ++r) {
        if (std::find(members.begin(), members.end(), r) == members.end()) root = r;
      }
    }
    for (const Rank r : members) {
      auto count = [&] { return rng.bernoulli(0.15) ? rng.uniform_int(0, 2) : 1; };
      const auto begins = count();
      const auto ends = count();
      auto& ts = now[static_cast<std::size_t>(r)];
      for (std::int64_t i = 0; i < begins; ++i) {
        t.events(r).push_back(coll(EventType::CollBegin, kind, k, root, ts += rng.uniform()));
      }
      for (std::int64_t i = 0; i < ends; ++i) {
        t.events(r).push_back(coll(EventType::CollEnd, kind, k, root, ts += rng.uniform()));
      }
    }
  }
  return t;
}

TEST(EdgeRules, FlavourRuleMatchesBruteForceOracle) {
  std::size_t edges = 0;
  std::size_t rooted_without_root = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const Trace t = random_collectives(seed);
    const std::vector<Edge> expect = oracle_edges(t);
    edges += expect.size();

    std::vector<Edge> derived;
    for (const LogicalMessage& lm : derive_logical_messages(t)) {
      derived.emplace_back(lm.send.proc, lm.send.index, lm.recv.proc, lm.recv.index, lm.coll_id);
    }
    std::sort(derived.begin(), derived.end());
    ASSERT_EQ(derived, expect) << "seed " << seed;

    std::stringstream v2;
    write_trace_v2(t, v2);
    TraceReader reader(v2);
    ASSERT_EQ(scan_clock_condition(reader).logical_messages, expect.size()) << "seed " << seed;

    for (const CollectiveInstance& inst : t.collect_collectives()) {
      const bool rooted = flavor_of(inst.kind) != CollectiveFlavor::NToN;
      const bool root_absent = std::none_of(inst.begins.begin(), inst.begins.end(),
                                            [&](const EventRef& b) { return b.proc == inst.root; });
      if (rooted && root_absent) ++rooted_without_root;
    }
  }
  // Not vacuous: edges were produced, and the absent-root case was hit.
  EXPECT_GT(edges, 1000u);
  EXPECT_GT(rooted_without_root, 0u);
}

}  // namespace
}  // namespace chronosync
