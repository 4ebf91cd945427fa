// ReplaySchedule's collective hubs against the every-edge CSR oracle
// (verify::CsrSchedule): edge expansions, Lamport clocks, the CLC driver's
// result and the audit's report must be what the all-explicit build gives,
// and every run that is not exactly a hub's expansion must stay explicit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "../testutil/random_collectives.hpp"
#include "../testutil/random_trace.hpp"
#include "../testutil/schedule_edges.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "sync/clc.hpp"
#include "sync/logical_clock.hpp"
#include "sync/omp_clc.hpp"
#include "sync/replay.hpp"
#include "ompsim/omp_bench.hpp"
#include "topology/cluster.hpp"
#include "trace/logical_messages.hpp"
#include "verify/clc_oracle.hpp"
#include "verify/csr_schedule.hpp"
#include "verify/invariants.hpp"
#include "workload/pop.hpp"
#include "workload/sweep.hpp"

namespace chronosync {
namespace {

using testutil::coll;
using testutil::same_bits;

/// Lamport clocks straight over the oracle's edges.
std::vector<std::vector<std::uint64_t>> oracle_lamport(const Trace& t,
                                                       const verify::CsrSchedule& s) {
  std::vector<std::uint64_t> by_g(s.events(), 0);
  s.replay([&](std::uint32_t g, const EventRef& ref) {
    std::uint64_t lc = ref.index > 0 ? by_g[g - 1] : 0;
    for (const auto& e : s.incoming(g)) lc = std::max(lc, by_g[e.source]);
    by_g[g] = lc + 1;
  });
  std::vector<std::vector<std::uint64_t>> out(static_cast<std::size_t>(t.ranks()));
  for (Rank r = 0; r < t.ranks(); ++r) {
    const auto first = by_g.begin() + s.rank_begin(r);
    out[static_cast<std::size_t>(r)].assign(first, first + s.rank_size(r));
  }
  return out;
}

/// The audit as InvariantChecker defines it, over the oracle's edges: pass 1
/// per rank (finiteness, local order), pass 2 per event per incoming edge
/// (Eq. 1), then, given an input, the correction pass.
verify::VerifyReport oracle_audit(const Trace& t, const verify::CsrSchedule& s,
                                  const TimestampArray* input, const TimestampArray& ts,
                                  const verify::VerifyOptions& o) {
  using verify::InvariantKind;
  verify::VerifyReport rep;
  const auto add = [&](InvariantKind k, Rank r, EventRef ev, Duration slack, EventRef other = {},
                       bool has_other = false) {
    const auto i = static_cast<std::size_t>(k);
    ++rep.counts[i];
    if (slack > rep.worst[i]) rep.worst[i] = slack;
    if (rep.violations.size() < verify::kMaxRecordedViolations) {
      rep.violations.push_back({k, r, ev, other, has_other, slack});
    }
  };
  for (Rank r = 0; r < t.ranks(); ++r) {
    const auto& v = ts.of_rank(r);
    bool have_prev = false;
    Time prev = 0.0;
    std::uint32_t prev_i = 0;
    for (std::uint32_t i = 0; i < v.size(); ++i) {
      ++rep.events_checked;
      if (!std::isfinite(v[i])) {
        add(InvariantKind::NonFiniteTimestamp, r, {r, i}, std::isnan(v[i]) ? 0.0 : kTimeInfinity);
        continue;
      }
      if (have_prev && v[i] < prev) {
        add(InvariantKind::LocalOrderInversion, r, {r, i}, prev - v[i], {r, prev_i}, true);
      }
      have_prev = true;
      prev = v[i];
      prev_i = i;
    }
  }
  for (Rank r = 0; r < t.ranks(); ++r) {
    for (std::uint32_t i = 0; i < s.rank_size(r); ++i) {
      const Time t_recv = ts.of_rank(r)[i];
      for (const auto& e : s.incoming(s.rank_begin(r) + i)) {
        ++rep.edges_checked;
        const Rank sr = s.rank_of(e.source);
        const std::uint32_t si = e.source - s.rank_begin(sr);
        const Time t_send = ts.of_rank(sr)[si];
        if (!std::isfinite(t_recv) || !std::isfinite(t_send)) continue;
        const Duration gap = t_send + e.l_min - t_recv;
        if (gap > o.clock_condition_slack) {
          add(InvariantKind::ClockCondition, r, {r, i}, gap, {sr, si}, true);
        }
      }
    }
  }
  if (input == nullptr) return rep;
  for (Rank r = 0; r < t.ranks(); ++r) {
    const auto& in = input->of_rank(r);
    const auto& out = ts.of_rank(r);
    for (std::uint32_t i = 0; i < in.size(); ++i) {
      if (!std::isfinite(in[i]) || !std::isfinite(out[i])) continue;
      const Duration moved = out[i] - in[i];
      if (moved < 0.0) add(InvariantKind::BackwardCorrection, r, {r, i}, -moved);
    }
  }
  return rep;
}

void expect_same_report(const verify::VerifyReport& a, const verify::VerifyReport& b,
                        const std::string& what) {
  EXPECT_EQ(a.events_checked, b.events_checked) << what;
  EXPECT_EQ(a.edges_checked, b.edges_checked) << what;
  EXPECT_EQ(a.counts, b.counts) << what;
  for (std::size_t k = 0; k < a.worst.size(); ++k) {
    EXPECT_TRUE(same_bits(a.worst[k], b.worst[k])) << what << " worst " << k;
  }
  ASSERT_EQ(a.violations.size(), b.violations.size()) << what;
  for (std::size_t k = 0; k < a.violations.size(); ++k) {
    const auto& x = a.violations[k];
    const auto& y = b.violations[k];
    EXPECT_TRUE(x.kind == y.kind && x.rank == y.rank && x.event == y.event &&
                x.other == y.other && x.has_other == y.has_other && same_bits(x.slack, y.slack))
        << what << " violation " << k;
  }
}

void expect_same_clc(const ClcResult& a, const ClcResult& b, const std::string& what) {
  EXPECT_EQ(a.violations_repaired, b.violations_repaired) << what;
  EXPECT_TRUE(same_bits(a.max_jump, b.max_jump)) << what;
  EXPECT_TRUE(same_bits(a.total_jump, b.total_jump)) << what;
  ASSERT_EQ(a.corrected.ranks(), b.corrected.ranks()) << what;
  for (Rank r = 0; r < a.corrected.ranks(); ++r) {
    const auto& x = a.corrected.of_rank(r);
    const auto& y = b.corrected.of_rank(r);
    ASSERT_EQ(x.size(), y.size()) << what;
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_TRUE(same_bits(x[i], y[i])) << what << " rank " << r << " event " << i;
    }
  }
}

/// Every consumer of `logical`'s hub schedule against the oracle CSR:
/// expansions, Lamport clocks, the CLC driver and the audit (with and
/// without a clock-condition slack, on the input and on the correction).  Returns the
/// schedule's hub count.
std::size_t expect_matches_oracle(const Trace& t, const std::vector<MessageRecord>& msgs,
                                  const std::vector<LogicalMessage>& logical,
                                  const TimestampArray& input, const std::string& what) {
  const ReplaySchedule hub(t, msgs, logical);
  const verify::CsrSchedule csr(t, msgs, logical);
  testutil::expect_same_edges(hub, csr);
  EXPECT_EQ(lamport_clocks(t, hub), oracle_lamport(t, csr)) << what;

  const ClcResult clc = controlled_logical_clock(t, hub, input);
  expect_same_clc(clc, verify::replay_order_clc(t, csr, input), what);
  expect_same_clc(verify::replay_order_clc(t, hub, input), verify::replay_order_clc(t, csr, input),
                  what + " (replay order over hubs)");

  verify::VerifyOptions loose;
  loose.clock_condition_slack = 1e-7;
  for (const verify::VerifyOptions& o : {verify::VerifyOptions{}, loose}) {
    const verify::InvariantChecker checker(t, hub, o);
    expect_same_report(checker.check(input), oracle_audit(t, csr, nullptr, input, o),
                       what + " (input)");
    expect_same_report(checker.check_correction(input, clc.corrected),
                       oracle_audit(t, csr, &input, clc.corrected, o), what + " (correction)");
  }
  return hub.hubs();
}

/// `input` with a few entries set to NaN, +inf and -inf.
TimestampArray with_non_finite(TimestampArray ts, std::uint64_t seed) {
  Rng rng(seed);
  static constexpr double kBad[] = {std::numeric_limits<double>::quiet_NaN(), kTimeInfinity,
                                    -kTimeInfinity};
  for (Rank r = 0; r < ts.ranks(); ++r) {
    for (Time& x : ts.of_rank(r)) {
      if (rng.bernoulli(0.08)) x = kBad[rng.uniform_int(0, 2)];
    }
  }
  return ts;
}

TEST(HubSchedule, MatchesCsrOracleOnRandomCollectives) {
  std::size_t hubs = 0;
  std::size_t logical_edges = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const Trace t = testutil::random_collectives(seed);
    const auto logical = derive_logical_messages(t);
    logical_edges += logical.size();
    const std::string what = "seed " + std::to_string(seed);
    const TimestampArray local = TimestampArray::from_local(t);
    hubs += expect_matches_oracle(t, {}, logical, local, what);
    expect_matches_oracle(t, {}, logical, with_non_finite(local, seed), what + " non-finite");
    if (HasFatalFailure()) return;
  }
  // Not vacuous: hubs were built and carried edges.
  EXPECT_GT(hubs, 100u);
  EXPECT_GT(logical_edges, 1000u);
}

TEST(HubSchedule, MatchesCsrOracleOnRandomTraces) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Trace t = testutil::random_trace(seed);
    const std::string what = "seed " + std::to_string(seed);
    const TimestampArray local = TimestampArray::from_local(t);
    try {
      expect_matches_oracle(t, t.match_messages(), derive_logical_messages(t), local, what);
    } catch (const std::invalid_argument& e) {
      // Random collectives may wait on each other: both builds must agree.
      const verify::CsrSchedule csr(t, t.match_messages(), derive_logical_messages(t));
      EXPECT_THROW(verify::replay_order_clc(t, csr, local), std::invalid_argument) << what;
    }
    if (HasFatalFailure()) return;
  }
}

TEST(HubSchedule, MatchesCsrOracleOnSweep64) {
  SweepConfig cfg;
  cfg.rounds = 60;
  cfg.collective_every = 20;
  JobConfig job;
  job.placement = pinning::block(clusters::xeon_rwth(), 64);
  job.timer = timer_specs::intel_tsc();
  job.seed = 11;
  const Trace t = run_sweep(cfg, std::move(job)).trace;
  const auto logical = derive_logical_messages(t);
  const std::size_t hubs = expect_matches_oracle(t, t.match_messages(), logical,
                                                 TimestampArray::from_local(t), "sweep");
  EXPECT_GT(hubs, 0u);
}

TEST(HubSchedule, MatchesCsrOracleOnPopWithPmpiRegions) {
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
  const auto logical = derive_logical_messages(t);
  const std::size_t hubs = expect_matches_oracle(t, t.match_messages(), logical,
                                                 TimestampArray::from_local(t), "pop");
  EXPECT_GT(hubs, 0u);
  expect_matches_oracle(t, t.match_messages(), logical,
                        with_non_finite(TimestampArray::from_local(t), 9), "pop non-finite");
}

// -- runs that must stay explicit ---------------------------------------------

/// Three ranks, two back-to-back allreduce instances (coll_id 1, 2) and a
/// bcast (3) and a reduce (4), rooted at rank 1.
Trace three_collectives() {
  Trace t(pinning::inter_node(clusters::xeon_rwth(), 3), {1e-7, 1e-6, 5e-6}, "explicit");
  const struct {
    CollectiveKind kind;
    std::int64_t id;
  } insts[] = {{CollectiveKind::Allreduce, 1},
               {CollectiveKind::Allreduce, 2},
               {CollectiveKind::Bcast, 3},
               {CollectiveKind::Reduce, 4}};
  Time ts = 1.0;
  for (const auto& inst : insts) {
    for (Rank r = 0; r < 3; ++r) {
      t.events(r).push_back(coll(EventType::CollBegin, inst.kind, inst.id, 1, ts + 0.1 * r));
      t.events(r).push_back(coll(EventType::CollEnd, inst.kind, inst.id, 1, ts + 0.05 + 0.1 * r));
    }
    ts += 1.0;
  }
  return t;
}

/// The schedule of `logical` has `hubs` hubs and the oracle's edges.
void expect_explicit_shape(const Trace& t, const std::vector<LogicalMessage>& logical,
                           std::size_t hubs, const std::string& what) {
  const ReplaySchedule s(t, {}, logical);
  EXPECT_EQ(s.hubs(), hubs) << what;
  testutil::expect_same_edges(s, verify::CsrSchedule(t, {}, logical));
}

TEST(HubSchedule, DerivedNToNRunsBecomeHubs) {
  const Trace t = three_collectives();
  expect_explicit_shape(t, derive_logical_messages(t), 2, "derived");
}

TEST(HubSchedule, CountsHubsAndScannedEdges) {
  const Trace t = three_collectives();
  const auto logical = derive_logical_messages(t);
  obs::set_level(obs::Level::Metrics);
  obs::reset();
  const ReplaySchedule s(t, {}, logical);
  const ClcResult clc = controlled_logical_clock(t, s, TimestampArray::from_local(t));
  const std::int64_t hubs = obs::counter("sync.schedule.hubs").value();
  const std::int64_t hub_edges = obs::counter("sync.schedule.hub_edges").value();
  const std::int64_t explicit_edges = obs::counter("sync.schedule.explicit_edges").value();
  const std::int64_t scanned = obs::counter("clc.edges_scanned").value();
  const std::int64_t parks = obs::counter("clc.rank_parks").value();
  obs::set_level(obs::Level::Off);
  obs::reset();
  EXPECT_EQ(hubs, 2);
  EXPECT_EQ(hub_edges, 12);      // two allreduces of 3 ranks: 3 x 2 edges each
  EXPECT_EQ(explicit_edges, 4);  // the bcast's and the reduce's
  EXPECT_EQ(static_cast<std::size_t>(hub_edges + explicit_edges), s.edges());
  // Every edge once, plus once per park.
  EXPECT_EQ(scanned, static_cast<std::int64_t>(s.edges()) + parks);
  EXPECT_GT(clc.violations_repaired, 0u);
}

TEST(HubSchedule, RootedRunsStayExplicit) {
  // 1-to-N has one begin, N-to-1 one end: neither is a hub.
  const Trace t = three_collectives();
  std::vector<LogicalMessage> rooted;
  for (const LogicalMessage& lm : derive_logical_messages(t)) {
    if (lm.coll_id >= 3) rooted.push_back(lm);
  }
  ASSERT_EQ(rooted.size(), 4u);
  expect_explicit_shape(t, rooted, 0, "rooted");
}

TEST(HubSchedule, ShuffledDroppedAndDuplicatedListsStayExplicit) {
  const Trace t = three_collectives();
  const auto derived = derive_logical_messages(t);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    auto shuffled = derived;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[static_cast<std::size_t>(rng.uniform_int(0, i - 1))]);
    }
    const ReplaySchedule s(t, {}, shuffled);
    testutil::expect_same_edges(s, verify::CsrSchedule(t, {}, shuffled));
  }
  // Dropping any one edge, or repeating any one message, breaks its run.
  for (std::size_t k = 0; k < 12; ++k) {
    auto dropped = derived;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(k));
    expect_explicit_shape(t, dropped, 1, "dropped " + std::to_string(k));
    auto doubled = derived;
    doubled.insert(doubled.begin() + static_cast<std::ptrdiff_t>(k), derived[k]);
    expect_explicit_shape(t, doubled, 1, "duplicated " + std::to_string(k));
  }
}

TEST(HubSchedule, EndFedByTwoRunsStaysExplicit) {
  // Splitting the first allreduce's run inside an end's stretch gives that
  // end edges from two coll_ids: both halves stay explicit.
  const Trace t = three_collectives();
  auto split = derive_logical_messages(t);
  ASSERT_EQ(split[2].recv, split[3].recv);
  for (std::size_t k = 3; k < 6; ++k) split[k].coll_id = 99;
  expect_explicit_shape(t, split, 1, "split");
  // The same end taking a stray edge from a later message list entry.
  auto stray = derive_logical_messages(t);
  stray.push_back({stray[12].send, stray[0].recv, 77});
  expect_explicit_shape(t, stray, 1, "stray end");
  // A begin of the hub sending once more outside it.
  auto stray_send = derive_logical_messages(t);
  stray_send.push_back({stray_send[0].send, stray_send[12].recv, 77});
  expect_explicit_shape(t, stray_send, 1, "stray begin");
}

TEST(HubSchedule, OmpEnterMajorListStaysExplicit) {
  OmpBenchConfig cfg;
  cfg.threads = 4;
  cfg.regions = 5;
  cfg.seed = 5;
  const auto res = run_omp_benchmark(cfg);
  const Placement pl = omp_thread_placement(clusters::itanium_smp_node(), 4);
  const Trace threads = split_omp_threads(res.trace, pl);
  const auto logical = derive_omp_logical_messages(threads);
  ASSERT_FALSE(logical.empty());
  expect_explicit_shape(threads, logical, 0, "omp");
}

TEST(HubSchedule, RejectsEventPastItsRank) {
  const Trace t = three_collectives();
  auto logical = derive_logical_messages(t);
  logical[4].send.index = 99;
  EXPECT_THROW(ReplaySchedule(t, {}, logical), std::invalid_argument);
  logical = derive_logical_messages(t);
  logical[1].recv.index = 99;
  EXPECT_THROW(ReplaySchedule(t, {}, logical), std::invalid_argument);
}

TEST(HubSchedule, RejectsHubPairingRanksOfOneCore) {
  // Ranks 0 and 1 share a core: an edge between them has no latency, and the
  // constructor refuses it as it refuses the explicit edge.
  Trace t(Placement({{0, 0, 0}, {0, 0, 0}, {1, 0, 0}}), {1e-7, 1e-6, 5e-6}, "colocated");
  for (Rank r = 0; r < 3; ++r) {
    t.events(r).push_back(coll(EventType::CollBegin, CollectiveKind::Barrier, 1, 0, 1.0));
    t.events(r).push_back(coll(EventType::CollEnd, CollectiveKind::Barrier, 1, 0, 1.1));
  }
  const auto logical = derive_logical_messages(t);
  EXPECT_THROW(ReplaySchedule(t, {}, logical), std::invalid_argument);
  EXPECT_THROW(verify::CsrSchedule(t, {}, logical), std::invalid_argument);
}

}  // namespace
}  // namespace chronosync
