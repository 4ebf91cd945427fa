#include "verify/invariants.hpp"

#include <cmath>
#include <sstream>

#include "common/expect.hpp"

namespace chronosync::verify {

std::string to_string(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::NonFiniteTimestamp: return "non-finite timestamp";
    case InvariantKind::LocalOrderInversion: return "local order inversion";
    case InvariantKind::ClockCondition: return "clock condition (Eq. 1)";
    case InvariantKind::BackwardCorrection: return "backward correction";
    case InvariantKind::kCount: break;
  }
  return "?";
}

std::size_t VerifyReport::total() const {
  std::size_t n = 0;
  for (const std::size_t c : counts) n += c;
  return n;
}

std::string VerifyReport::summary() const {
  std::ostringstream os;
  os << "verify: " << events_checked << " events, " << edges_checked
     << " constraint edges, " << total() << " violation(s)\n";
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] == 0) continue;
    os << "  " << to_string(static_cast<InvariantKind>(k)) << ": " << counts[k]
       << " (worst " << worst[k] << " s)\n";
  }
  for (const auto& v : violations) {
    os << "    " << to_string(v.kind) << " rank " << v.rank << " event ("
       << v.event.proc << ", " << v.event.index << ")";
    if (v.has_other) os << " vs (" << v.other.proc << ", " << v.other.index << ")";
    os << " slack " << v.slack << " s\n";
  }
  return os.str();
}

namespace {

struct Recorder {
  VerifyReport& report;

  void add(InvariantKind kind, Rank rank, EventRef event, Duration slack,
           EventRef other = {}, bool has_other = false) {
    auto& count = report.counts[static_cast<std::size_t>(kind)];
    auto& worst = report.worst[static_cast<std::size_t>(kind)];
    ++count;
    if (slack > worst) worst = slack;
    if (report.violations.size() < kMaxRecordedViolations) {
      report.violations.push_back({kind, rank, event, other, has_other, slack});
    }
  }
};

}  // namespace

InvariantChecker::InvariantChecker(const Trace& trace, const ReplaySchedule& schedule,
                                   VerifyOptions options)
    : trace_(&trace), schedule_(&schedule), options_(options) {
  CS_REQUIRE(schedule.events() == trace.total_events() &&
                 schedule.rank_offsets().size() == static_cast<std::size_t>(trace.ranks()) + 1,
             "schedule was not built from this trace");
  CS_REQUIRE(options_.clock_condition_slack >= 0.0, "verify tolerances must be non-negative");
}

VerifyReport InvariantChecker::check(const TimestampArray& ts) const {
  CS_REQUIRE(ts.ranks() == trace_->ranks(), "timestamp array rank count mismatch");
  VerifyReport report;
  Recorder rec{report};

  // Pass 1, per rank in event order: finiteness and local order.  A
  // non-finite timestamp also poisons every comparison it takes part in, so
  // order is only judged between finite neighbours.
  for (Rank r = 0; r < trace_->ranks(); ++r) {
    const auto& v = ts.of_rank(r);
    CS_REQUIRE(v.size() == schedule_->rank_size(r), "timestamp array shape differs from trace");
    bool have_prev = false;
    Time prev = 0.0;
    std::uint32_t prev_i = 0;
    for (std::uint32_t i = 0; i < v.size(); ++i) {
      ++report.events_checked;
      const Time t = v[i];
      if (!std::isfinite(t)) {
        rec.add(InvariantKind::NonFiniteTimestamp, r, {r, i},
                std::isnan(t) ? 0.0 : kTimeInfinity);
        continue;
      }
      if (have_prev && t < prev) {
        rec.add(InvariantKind::LocalOrderInversion, r, {r, i}, prev - t, {r, prev_i},
                true);
      }
      have_prev = true;
      prev = t;
      prev_i = i;
    }
  }

  // Pass 2, over the constraint edges: Eq. 1 with per-edge slack, event by
  // event in rank order.
  const Duration slack = options_.clock_condition_slack;
  std::size_t edges = 0;
  schedule_->for_each_timed_edge(ts, [&](const EventRef& recv, Time t_recv, const EventRef& send,
                                         Time t_send, Duration l_min, bool) {
    ++edges;
    if (!std::isfinite(t_recv) || !std::isfinite(t_send)) return;  // already counted
    const Duration gap = t_send + l_min - t_recv;
    if (gap > slack) rec.add(InvariantKind::ClockCondition, recv.proc, recv, gap, send, true);
  });
  report.edges_checked = edges;
  return report;
}

VerifyReport InvariantChecker::check_correction(const TimestampArray& input,
                                                const TimestampArray& corrected) const {
  VerifyReport report = check(corrected);
  CS_REQUIRE(input.ranks() == trace_->ranks(), "input array rank count mismatch");
  Recorder rec{report};

  for (Rank r = 0; r < trace_->ranks(); ++r) {
    const auto& in = input.of_rank(r);
    const auto& out = corrected.of_rank(r);
    CS_REQUIRE(in.size() == out.size(), "input/corrected arrays differ in shape");
    for (std::uint32_t i = 0; i < in.size(); ++i) {
      if (!std::isfinite(in[i]) || !std::isfinite(out[i])) continue;
      const Duration moved = out[i] - in[i];
      if (moved < 0.0) rec.add(InvariantKind::BackwardCorrection, r, {r, i}, -moved);
    }
  }
  return report;
}

}  // namespace chronosync::verify
