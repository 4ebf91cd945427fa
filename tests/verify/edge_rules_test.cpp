// The Eq. 1 edge rules (trace/edge_rules.hpp) are shared by every scanner and
// every CLC path, so the scanner cross-checks can no longer catch a wrong rule
// on their own.  These tests pin the rules from outside: regression traces run
// through all consumers, a brute-force oracle written here from the
// definition of the collective flavours, and the msg_id join as first written
// (on std::unordered_map) as the oracle of the flat partitioned one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "../testutil/random_collectives.hpp"
#include "../testutil/random_trace.hpp"
#include "../testutil/schedule_edges.hpp"
#include "analysis/clock_condition.hpp"
#include "analysis/clock_condition_stream.hpp"
#include "common/rng.hpp"
#include "common/scratch_dir.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "sync/clc.hpp"
#include "sync/clc_stream.hpp"
#include "sync/replay.hpp"
#include "topology/cluster.hpp"
#include "trace/logical_messages.hpp"
#include "trace/stream_io.hpp"
#include "verify/clock_condition_oracle.hpp"
#include "verify/differential.hpp"
#include "workload/pop.hpp"
#include "workload/sweep.hpp"

namespace chronosync {
namespace {

using testutil::coll;
using testutil::random_collectives;

Event p2p(EventType type, std::int64_t id, Rank peer, Time ts) {
  Event e;
  e.type = type;
  e.msg_id = id;
  e.peer = peer;
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
  const ClockConditionReport full =
      verify::clock_condition_oracle(t, local, t.match_messages(), derive_logical_messages(t));
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

// -- msg_id join vs the hash-map oracle ------------------------------------------

/// The msg_id join as first written, on std::unordered_map: the oracle the
/// flat partitioned edge_rules::MessageJoin must reproduce op for op.
template <class Endpoint>
class MapJoin {
 public:
  template <class OnPair>
  void send(std::int64_t id, const Endpoint& ep, OnPair&& on_pair) {
    add(id, true, ep, on_pair);
  }
  template <class OnPair>
  void recv(std::int64_t id, const Endpoint& ep, OnPair&& on_pair) {
    add(id, false, ep, on_pair);
  }
  std::size_t outstanding() const { return open_.size(); }
  std::size_t peak_outstanding() const { return peak_; }

 private:
  struct HalfOpen {
    Endpoint ep;
    bool is_send;
  };

  template <class OnPair>
  void add(std::int64_t id, bool is_send, const Endpoint& ep, OnPair& on_pair) {
    const auto [it, fresh] = open_.try_emplace(id, HalfOpen{ep, is_send});
    if (fresh) {
      peak_ = std::max(peak_, open_.size());
      return;
    }
    if (it->second.is_send == is_send) {
      it->second.ep = ep;
      return;
    }
    const Endpoint other = it->second.ep;
    open_.erase(it);
    if (is_send) {
      on_pair(ep, other);
    } else {
      on_pair(other, ep);
    }
  }

  std::unordered_map<std::int64_t, HalfOpen> open_;
  std::size_t peak_ = 0;
};

/// Trace::match_messages as first written: MapJoin over rank-major order,
/// bytes and tag looked up from the send event, then a stable sort by id.
std::vector<MessageRecord> oracle_match(const Trace& t) {
  MapJoin<EventRef> join;
  std::vector<std::pair<std::int64_t, MessageRecord>> done;
  for (Rank r = 0; r < t.ranks(); ++r) {
    for (std::uint32_t i = 0; i < t.events(r).size(); ++i) {
      const Event& e = t.events(r)[i];
      auto on_pair = [&](const EventRef& send, const EventRef& recv) {
        const Event& s = t.at(send);
        done.emplace_back(e.msg_id, MessageRecord{send, recv, s.bytes, s.tag});
      };
      if (e.type == EventType::Send) {
        join.send(e.msg_id, {r, i}, on_pair);
      } else if (e.type == EventType::Recv) {
        join.recv(e.msg_id, {r, i}, on_pair);
      }
    }
  }
  std::stable_sort(done.begin(), done.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<MessageRecord> out;
  for (const auto& [id, m] : done) out.push_back(m);
  return out;
}

using FlatJoin = edge_rules::MessageJoin<std::uint64_t>;
using FlatTable = edge_rules::IdTable<std::uint64_t>;

/// Inverse of the id table's odd hash multiplier mod 2^64 (Newton iteration), so
/// a test can pick hashes and derive the ids that have them.
constexpr std::uint64_t inverse_multiplier() {
  std::uint64_t x = FlatTable::kHashMultiplier;  // correct to 3 bits
  for (int i = 0; i < 5; ++i) x *= 2 - FlatTable::kHashMultiplier * x;
  return x;
}
static_assert(inverse_multiplier() * FlatTable::kHashMultiplier == 1);

/// `count` ids whose hashes share the top 8 + 20 bits: one table, and one
/// home slot at every table size up to 2^20 slots.
std::vector<std::int64_t> colliding_ids(Rng& rng, std::size_t count) {
  const std::uint64_t top = rng.next() & ~((std::uint64_t{1} << 36) - 1);
  std::vector<std::int64_t> ids;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t h = top | (rng.next() >> 28);
    ids.push_back(static_cast<std::int64_t>(h * inverse_multiplier()));
  }
  return ids;
}

/// One random id pool per seed: a few small ids (frequent duplicates and
/// reopened ids), the int64 extremes, and for some seeds a colliding cluster
/// or a wide range that makes the tables grow through several steps.
std::vector<std::int64_t> id_pool(Rng& rng, std::uint64_t seed) {
  std::vector<std::int64_t> pool = {std::numeric_limits<std::int64_t>::min(), -1, 0,
                                    std::numeric_limits<std::int64_t>::max()};
  const auto small = rng.uniform_int(1, 40);
  for (std::int64_t k = 1; k <= small; ++k) pool.push_back(k);
  if (seed % 3 == 0) {
    const auto more = colliding_ids(rng, static_cast<std::size_t>(rng.uniform_int(2, 1000)));
    pool.insert(pool.end(), more.begin(), more.end());
  }
  if (seed % 50 == 0) {
    // ~4x10^4 ids open at once: every table doubles four times or more (a
    // colliding cluster alone drives its one table through up to seven).
    for (std::int64_t k = 0; k < 40000; ++k) pool.push_back(static_cast<std::int64_t>(rng.next()));
  }
  return pool;
}

std::int64_t pick(Rng& rng, const std::vector<std::int64_t>& pool) {
  const auto last = static_cast<std::int64_t>(pool.size()) - 1;
  return pool[static_cast<std::size_t>(rng.uniform_int(0, last))];
}

TEST(EdgeRules, FlatJoinMatchesMapOracle) {
  {
    // The colliding pools below only test something if their ids really
    // share a table and a home slot.
    Rng rng(5);
    const std::vector<std::int64_t> ids = colliding_ids(rng, 64);
    for (const std::int64_t id : ids) {
      ASSERT_EQ(FlatTable::hash(id) >> 36, FlatTable::hash(ids[0]) >> 36);
    }
  }
  std::size_t pairs = 0, overwrites = 0, reopened = 0, half_open_left = 0;
  std::size_t max_peak = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
    const std::vector<std::int64_t> pool = id_pool(rng, seed);
    // Big pools are first filled in order (all open), then drained at random.
    const std::size_t ops = pool.size() > 1000 ? 3 * pool.size() : 400;

    FlatJoin flat;
    MapJoin<std::uint64_t> oracle;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> got, want;
    std::unordered_set<std::int64_t> retired;
    for (std::uint64_t op = 0; op < ops; ++op) {
      const std::int64_t id = op < pool.size() && pool.size() > 1000 ? pool[op] : pick(rng, pool);
      const bool is_send = rng.bernoulli(0.5);
      const std::size_t before = oracle.outstanding();
      auto on_got = [&](std::uint64_t s, std::uint64_t r) { got.emplace_back(s, r); };
      auto on_want = [&](std::uint64_t s, std::uint64_t r) { want.emplace_back(s, r); };
      if (is_send) {
        flat.send(id, op, on_got);
        oracle.send(id, op, on_want);
      } else {
        flat.recv(id, op, on_got);
        oracle.recv(id, op, on_want);
      }
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " op " << op << " id " << id;
      if (!want.empty()) {
        ASSERT_EQ(got.back(), want.back()) << "seed " << seed << " op " << op;
      }
      ASSERT_EQ(flat.outstanding(), oracle.outstanding()) << "seed " << seed << " op " << op;
      ASSERT_EQ(flat.peak_outstanding(), oracle.peak_outstanding())
          << "seed " << seed << " op " << op;

      if (oracle.outstanding() < before) {
        ++pairs;
        retired.insert(id);
      } else if (oracle.outstanding() == before) {
        ++overwrites;
      } else if (retired.count(id) > 0) {
        ++reopened;
      }
    }
    half_open_left += oracle.outstanding();
    max_peak = std::max(max_peak, oracle.peak_outstanding());
  }
  // Not vacuous: every path of the join was taken, and tables grew deep.
  EXPECT_GT(pairs, 10000u);
  EXPECT_GT(overwrites, 10000u);
  EXPECT_GT(reopened, 1000u);
  EXPECT_GT(half_open_left, 1000u);
  EXPECT_GT(max_peak, 30000u);
}

// The id table the join and the windowed CLC share, against std::unordered_map:
// insert, overwrite, find, erase and erase_if on the hostile id pools above
// (int64 extremes, -1 and 0, colliding hashes, reopened ids, and pools wide
// enough to double a table several times), with the caller's mark riding
// along.  erase_if must visit every entry exactly once.
TEST(EdgeRules, IdTableMatchesMapOracle) {
  struct Want {
    std::uint64_t value;
    std::uint8_t mark;
  };
  std::size_t reopened = 0, swept = 0, max_size = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 0x2545F4914F6CDD1DULL + 3);
    const std::vector<std::int64_t> pool = id_pool(rng, seed);
    const std::size_t ops = pool.size() > 1000 ? 3 * pool.size() : 500;

    FlatTable table;
    std::unordered_map<std::int64_t, Want> oracle;
    std::unordered_set<std::int64_t> erased;
    auto expect_same_contents = [&](const std::string& where) {
      std::unordered_set<std::int64_t> seen;
      table.erase_if([&](std::int64_t id, std::uint64_t& v) {
        EXPECT_TRUE(seen.insert(id).second) << where << ": id " << id << " visited twice";
        const auto it = oracle.find(id);
        EXPECT_TRUE(it != oracle.end() && it->second.value == v) << where << ": id " << id;
        return false;
      });
      EXPECT_EQ(seen.size(), oracle.size()) << where;
    };

    for (std::uint64_t op = 0; op < ops; ++op) {
      const bool filling = pool.size() > 1000 && op < pool.size();
      const std::int64_t id = filling ? pool[op] : pick(rng, pool);
      const std::string where = "seed " + std::to_string(seed) + " op " + std::to_string(op);
      // Sweeps cost O(size): rarer in the big pools.
      const std::int64_t sweep_odds = pool.size() > 1000 ? 10000 : 50;
      const bool sweep = !filling && rng.uniform_int(1, sweep_odds) == 1;
      const auto roll = filling ? 0 : rng.uniform_int(0, 97);
      if (sweep) {
        // Sweep out about a third of the entries.
        table.erase_if([&](std::int64_t key, std::uint64_t& v) {
          if (v % 3 != 0) return false;
          EXPECT_EQ(oracle.erase(key), 1u) << where << ": id " << key;
          erased.insert(key);
          return true;
        });
        ++swept;
        expect_same_contents(where);
      } else if (roll < 45) {
        // Probe, then insert under a mark or check the entry found.
        FlatTable::Slot slot = table.probe(id);
        const auto it = oracle.find(id);
        ASSERT_EQ(slot.found(), it != oracle.end()) << where;
        if (slot.found()) {
          ASSERT_EQ(slot.mark(), it->second.mark) << where;
          ASSERT_EQ(slot.value(), it->second.value) << where;
        } else {
          const auto mark = static_cast<std::uint8_t>(op % 255 + 1);
          slot.insert(op, mark);
          oracle[id] = {op, mark};
          reopened += erased.count(id);
        }
      } else if (roll < 60) {
        // operator[]: an absent id enters under mark 1, a present one keeps
        // its mark.
        table[id] = op;
        const auto [it, inserted] = oracle.try_emplace(id, Want{op, 1});
        if (inserted) {
          reopened += erased.count(id);
        } else {
          it->second.value = op;
        }
      } else if (roll < 80) {
        const std::uint64_t* v = table.find(id);
        const auto it = oracle.find(id);
        ASSERT_EQ(v != nullptr, it != oracle.end()) << where;
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second.value) << where;
        }
      } else {
        const bool had = oracle.erase(id) > 0;
        ASSERT_EQ(table.erase(id), had) << where;
        if (had) erased.insert(id);
      }
      ASSERT_EQ(table.size(), oracle.size()) << where;
      max_size = std::max(max_size, oracle.size());
    }
    expect_same_contents("seed " + std::to_string(seed) + " end");
  }
  // Not vacuous: ids came back after removal, sweeps ran, tables grew deep.
  EXPECT_GT(reopened, 1000u);
  EXPECT_GT(swept, 1000u);
  EXPECT_GT(max_size, 30000u);
}

// -- matcher and CSR schedule on real traces ------------------------------------

void expect_same_messages(const std::vector<MessageRecord>& got,
                          const std::vector<MessageRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].send, want[i].send) << "message " << i;
    ASSERT_EQ(got[i].recv, want[i].recv) << "message " << i;
    ASSERT_EQ(got[i].bytes, want[i].bytes) << "message " << i;
    ASSERT_EQ(got[i].tag, want[i].tag) << "message " << i;
  }
}

/// match_messages() equals the oracle matcher field for field and in order,
/// and the ReplaySchedules built from the two have identical edges.
void expect_matcher_and_schedule_match_oracle(const Trace& t, std::size_t min_messages) {
  const std::vector<MessageRecord> got = t.match_messages();
  const std::vector<MessageRecord> want = oracle_match(t);
  EXPECT_GE(want.size(), min_messages);
  expect_same_messages(got, want);

  const std::vector<LogicalMessage> logical = derive_logical_messages(t);
  const ReplaySchedule a(t, got, logical);
  const ReplaySchedule b(t, want, logical);
  testutil::expect_same_edges(a, b);
}

TEST(EdgeRules, MatcherAndScheduleMatchOracleOnSweep64) {
  SweepConfig cfg;
  cfg.rounds = 60;
  cfg.collective_every = 20;
  JobConfig job;
  job.placement = pinning::block(clusters::xeon_rwth(), 64);
  job.timer = timer_specs::intel_tsc();
  job.seed = 11;
  const Trace t = run_sweep(cfg, std::move(job)).trace;
  ASSERT_EQ(t.ranks(), 64);
  expect_matcher_and_schedule_match_oracle(t, 60 * 64 / 2);
}

TEST(EdgeRules, MatcherAndScheduleMatchOracleOnPopWithPmpiRegions) {
  PopConfig cfg;
  cfg.px = 4;
  cfg.py = 4;
  cfg.total_iterations = 40;
  cfg.traced_begin = 10;
  cfg.traced_end = 30;
  cfg.iter_compute = 500 * units::us;
  JobConfig job;
  job.placement = pinning::block(clusters::xeon_rwth(), cfg.px * cfg.py);
  job.timer = timer_specs::intel_tsc();
  job.record_mpi_regions = true;
  job.seed = 3;
  const Trace t = run_pop(cfg, std::move(job)).trace;
  ASSERT_FALSE(t.regions().empty());
  expect_matcher_and_schedule_match_oracle(t, 100);
}

TEST(EdgeRules, MatcherAndScheduleMatchOracleOnDuplicatedAndRetiredIds) {
  // Hand-built malformed trace: same-side duplicates while half-open (last
  // wins), an id reopened and completed again after retirement (two records
  // for one id, in completion order), half-open leftovers, the int64
  // extremes, ids colliding in one table, and a collective for logical edges.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Trace t(pinning::inter_node(clusters::xeon_rwth(), 3), {1e-7, 1e-6, 5e-6}, "dups");
  Time ts = 0.0;
  auto send = [&](Rank r, std::int64_t id, Rank peer, Tag tag, std::uint32_t bytes) {
    Event e = p2p(EventType::Send, id, peer, ts += 1e-3);
    e.tag = tag;
    e.bytes = bytes;
    t.events(r).push_back(e);
  };
  auto recv = [&](Rank r, std::int64_t id, Rank peer) {
    t.events(r).push_back(p2p(EventType::Recv, id, peer, ts += 1e-3));
  };
  Rng rng(9);
  const std::vector<std::int64_t> clash = colliding_ids(rng, 40);
  send(0, 5, 1, 1, 10);
  send(0, 5, 1, 2, 20);  // overwrites the first send of id 5
  send(0, kMin, 2, 3, 30);
  send(0, kMax, 2, 4, 40);
  send(0, -1, 1, 5, 50);
  send(0, 9, 2, 6, 60);  // never received
  for (std::size_t k = 0; k < clash.size(); ++k) {
    send(0, clash[k], 1, 7, static_cast<std::uint32_t>(k));
  }
  t.events(0).push_back(coll(EventType::CollBegin, CollectiveKind::Allreduce, 1, 0, ts += 1e-3));
  t.events(0).push_back(coll(EventType::CollEnd, CollectiveKind::Allreduce, 1, 0, ts += 1e-3));
  recv(1, 5, 0);   // retires id 5
  recv(1, -1, 0);
  recv(1, 5, 2);   // reopens id 5 ...
  for (std::size_t k = 0; k < clash.size(); k += 2) recv(1, clash[k], 0);
  recv(1, 0, 2);   // never sent
  // Ids that share their high bits, completed against id order: a sort that
  // looked at the top digit only would keep them in completion order.
  for (const std::int64_t id : {std::int64_t{1} << 40, std::int64_t{3}, std::int64_t{1} << 20}) {
    send(0, id, 1, 9, 90);
    recv(1, id, 0);
  }
  t.events(1).push_back(coll(EventType::CollBegin, CollectiveKind::Allreduce, 1, 0, ts += 1e-3));
  t.events(1).push_back(coll(EventType::CollEnd, CollectiveKind::Allreduce, 1, 0, ts += 1e-3));
  send(2, 5, 1, 8, 80);  // ... and completes it again: a second record for id 5
  recv(2, kMax, 0);
  recv(2, kMin, 0);
  recv(2, kMin, 0);  // reopens kMin, left half-open
  for (std::size_t k = 1; k < clash.size(); k += 2) recv(2, clash[k], 0);
  t.events(2).push_back(coll(EventType::CollBegin, CollectiveKind::Allreduce, 1, 0, ts += 1e-3));
  t.events(2).push_back(coll(EventType::CollEnd, CollectiveKind::Allreduce, 1, 0, ts += 1e-3));

  expect_matcher_and_schedule_match_oracle(t, 48);
  const std::vector<MessageRecord> msgs = t.match_messages();
  ASSERT_EQ(msgs.size(), 48u);
  EXPECT_EQ(msgs.front().tag, 3);  // kMin sorts first
  EXPECT_EQ(msgs.back().tag, 4);   // kMax sorts last
  // The two records of id 5 stay in completion order: the overwriting send
  // (tag 2) paired first, the reopened pair (tag 8) second.
  std::vector<Tag> id5;
  for (const MessageRecord& m : msgs) {
    if (t.at(m.send).msg_id == 5) id5.push_back(m.tag);
  }
  EXPECT_EQ(id5, (std::vector<Tag>{2, 8}));
}

TEST(EdgeRules, MatcherMatchesOracleOnRandomIds) {
  // Random endpoint streams over the id pools of FlatJoinMatchesMapOracle,
  // spread over ranks: the sort by id sees dense, duplicated and full-range
  // ids, so it runs anywhere from one pass to eight.
  std::size_t messages = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed + 1000);
    const std::vector<std::int64_t> pool = id_pool(rng, seed);
    const int ranks = static_cast<int>(rng.uniform_int(1, 5));
    Trace t(pinning::block(clusters::xeon_rwth(), ranks), {1e-7, 1e-6, 5e-6}, "random-ids");
    for (Rank r = 0; r < ranks; ++r) {
      const auto n = rng.uniform_int(0, 120);
      for (std::int64_t k = 0; k < n; ++k) {
        const EventType type = rng.bernoulli(0.5) ? EventType::Send : EventType::Recv;
        Event e = p2p(type, pick(rng, pool), 0, 1.0);
        e.tag = static_cast<Tag>(k);
        e.bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
        t.events(r).push_back(e);
      }
    }
    const std::vector<MessageRecord> want = oracle_match(t);
    messages += want.size();
    expect_same_messages(t.match_messages(), want);
    if (testing::Test::HasFatalFailure()) FAIL() << "seed " << seed;
  }
  EXPECT_GT(messages, 10000u);
}

TEST(EdgeRules, MatcherCountsHalfMatchedAndPeakOutstanding) {
  // Two half-matched endpoints (a send never received, a receive never
  // sent); the peak is reached after rank 0 opened all three of its sends.
  Trace t(pinning::inter_node(clusters::xeon_rwth(), 2), {1e-7, 1e-6, 5e-6}, "counts");
  t.events(0).push_back(p2p(EventType::Send, 1, 1, 1.0));
  t.events(0).push_back(p2p(EventType::Send, 2, 1, 2.0));
  t.events(0).push_back(p2p(EventType::Send, 3, 1, 3.0));
  t.events(1).push_back(p2p(EventType::Recv, 1, 0, 4.0));
  t.events(1).push_back(p2p(EventType::Recv, 2, 0, 5.0));
  t.events(1).push_back(p2p(EventType::Recv, 4, 0, 6.0));

  const obs::Level saved = obs::level();
  obs::set_level(obs::Level::Metrics);
  obs::reset_registry_values();
  const std::size_t matched = t.match_messages().size();
  t.match_messages();
  obs::set_level(saved);
  EXPECT_EQ(matched, 2u);
  // half_matched sums over calls; peak_outstanding is one sample per call,
  // so its max stays the per-call peak (a counter would read 6).
  EXPECT_EQ(obs::counter("trace.match.half_matched").value(), 4);
  const obs::QuantileSnapshot peak =
      obs::quantile_histogram("trace.match.peak_outstanding").snapshot();
  EXPECT_EQ(peak.count, 2u);
  EXPECT_EQ(peak.max, 3.0);
}

}  // namespace
}  // namespace chronosync
