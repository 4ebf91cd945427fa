// Executable paper invariants (the verification layer of the correction
// stack).
//
// Every synchronization result in this codebase is a TimestampArray, and the
// paper's argument rests on a small set of invariants over such arrays:
//
//   * all timestamps are finite numbers (a correction must never manufacture
//     an infinity or NaN);
//   * the local event order of every rank is preserved (timestamps are
//     non-decreasing along each rank's event sequence);
//   * the clock condition t_recv >= t_send + l_min (Eq. 1) holds across all
//     constraint edges — exactly for CLC output, up to a method-dependent
//     tolerance otherwise;
//   * a correction pass never moves an event backward relative to its input
//     (the CLC, including backward amortization, only advances events).
//
// InvariantChecker audits a whole array in one pass over the trace plus one
// pass over the ReplaySchedule's constraint edges (for_each_timed_edge, which
// the CSR Eq. 1 scan shares) and reports *typed*
// violations (kind, rank, event refs, slack) instead of a bool, so callers —
// tests, the chronocheck tool, the --verify bench mode — can decide what is
// fatal and print actionable diagnostics.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sync/replay.hpp"
#include "trace/trace.hpp"

namespace chronosync::verify {

enum class InvariantKind {
  NonFiniteTimestamp,   ///< NaN or infinity in the array
  LocalOrderInversion,  ///< rank-local timestamp order broken
  ClockCondition,       ///< t_recv < t_send + l_min - slack (Eq. 1)
  BackwardCorrection,   ///< corrected timestamp moved behind its input
  kCount,               ///< sentinel, not a kind
};

std::string to_string(InvariantKind kind);

/// One violation instance.  `event` is the offending event; `other` is the
/// constraint partner where one exists (the predecessor for local-order
/// inversions, the send for clock-condition violations).
struct InvariantViolation {
  InvariantKind kind{};
  Rank rank = -1;
  EventRef event{};
  EventRef other{};
  bool has_other = false;
  /// Violation size in seconds: how far past the invariant the timestamp
  /// lies (always > 0 for a recorded violation).
  Duration slack = 0.0;
};

struct VerifyOptions {
  /// Tolerance subtracted from every clock-condition edge: 0 demands Eq. 1
  /// exactly (appropriate for CLC output), larger values audit pre-sync
  /// methods that only promise approximate synchronization.
  Duration clock_condition_slack = 0.0;
};

/// At most this many violation instances are materialized per report; the
/// per-kind counts stay exact beyond the cap.  Local-order inversions and
/// backward corrections are judged exactly, with no tolerance.
inline constexpr std::size_t kMaxRecordedViolations = 64;

struct VerifyReport {
  std::size_t events_checked = 0;
  std::size_t edges_checked = 0;
  std::array<std::size_t, static_cast<std::size_t>(InvariantKind::kCount)> counts{};
  /// Worst observed violation size per kind (0 when the kind is clean).
  std::array<Duration, static_cast<std::size_t>(InvariantKind::kCount)> worst{};
  /// First kMaxRecordedViolations violations in audit order.
  std::vector<InvariantViolation> violations;

  std::size_t count(InvariantKind kind) const {
    return counts[static_cast<std::size_t>(kind)];
  }
  Duration worst_slack(InvariantKind kind) const {
    return worst[static_cast<std::size_t>(kind)];
  }
  std::size_t total() const;
  bool ok() const { return total() == 0; }

  /// Multi-line human-readable rendering (chronocheck / --verify output).
  std::string summary() const;
};

/// Audits timestamp arrays against one (trace, schedule) pair.  The checker
/// borrows both; they must outlive it.
class InvariantChecker {
 public:
  InvariantChecker(const Trace& trace, const ReplaySchedule& schedule,
                   VerifyOptions options = {});

  /// Audits `ts` alone: finiteness, local order, clock condition.
  VerifyReport check(const TimestampArray& ts) const;

  /// Audits a correction pass `input -> corrected`: everything check() does
  /// on `corrected`, plus the backward-movement invariant against `input`.
  VerifyReport check_correction(const TimestampArray& input,
                                const TimestampArray& corrected) const;

  const VerifyOptions& options() const { return options_; }

 private:
  const Trace* trace_;
  const ReplaySchedule* schedule_;
  VerifyOptions options_;
};

}  // namespace chronosync::verify
