// Metrics registry: named counters, gauges, and quantile histograms that
// snapshot into a flat, name-sorted (name, value) list.
//
// Each metric is a single set of relaxed atomics: counters one int64 sum,
// gauges one last-writer-wins cell, quantile histograms one array of
// log-bucketed atomic counts plus exact CAS-maintained min/max.  Updates come
// from the main thread (once per call, chunk or simulated message), so one
// cell per value suffices; every update is exact and race-free under
// concurrent add() from any thread, and a histogram's snapshot
// (and therefore every extracted quantile) is a pure function of the
// multiset of added values, independent of thread interleaving.
//
// Handles returned by counter()/gauge()/quantile_histogram() are stable for
// the process lifetime; look them up once (function-local static or member)
// and update through the handle on the hot path.  All updates are gated on
// obs::metrics_enabled() internally, so call sites may update
// unconditionally — with observability off the cost is one relaxed load.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace chronosync::obs {

/// Monotonically increasing sum.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void add(std::int64_t delta);
  void operator+=(std::int64_t delta) { add(delta); }

  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<std::int64_t> v_{0};

  friend void reset_registry_values();
};

/// Last-writer-wins scalar.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void set(double value);
  double value() const { return std::bit_cast<double>(bits_.load(std::memory_order_relaxed)); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};

  friend void reset_registry_values();
};

/// Log-bucketed quantile layout shared by QuantileHisto and its snapshots:
/// each power-of-two octave in [2^kQuantileMinExp, 2^kQuantileMaxExp) is
/// split into kQuantileSubBuckets linear-in-mantissa sub-buckets (HdrHistogram
/// style), covering sub-picoseconds to months when the unit is seconds.
/// Values below the range (including zero and negatives) fall into a
/// dedicated underflow bucket, values above are clamped into the top bucket,
/// and NaN is tallied separately.  The widest bucket spans a ratio of 17/16,
/// so a geometric-midpoint estimate has worst-case relative error
/// sqrt(17/16) - 1, about 3.1%.
inline constexpr int kQuantileSubBuckets = 16;
inline constexpr int kQuantileMinExp = -40;
inline constexpr int kQuantileMaxExp = 24;
inline constexpr std::size_t kQuantileBuckets =
    static_cast<std::size_t>(kQuantileMaxExp - kQuantileMinExp) * kQuantileSubBuckets;

/// Immutable view of a QuantileHisto: integer bucket counts plus exact
/// min/max.  Because the counts are integers, the snapshot — and every
/// quantile read from it — depends only on the multiset of added values,
/// never on thread interleaving.
struct QuantileSnapshot {
  std::uint64_t count = 0;      ///< finite samples (underflow included)
  std::uint64_t underflow = 0;  ///< samples below the bucketed range (<= 0 too)
  std::uint64_t invalid = 0;    ///< NaN samples; never in count or a bucket
  double min = 0.0;             ///< exact smallest finite sample (0 when empty)
  double max = 0.0;             ///< exact largest finite sample (0 when empty)
  std::vector<std::uint64_t> buckets;  ///< kQuantileBuckets counts

  bool empty() const { return count == 0; }
  /// Quantile by bucket walk: the value returned is the geometric midpoint
  /// of the bucket holding the ceil(q*count)-th smallest sample, clamped
  /// into [min, max]; q in [0, 1].  0 when empty.
  double quantile(double q) const;

  /// Bucket geometry, exposed for golden tests and exporters.
  static std::size_t bucket_index(double x);
  static double bucket_lo(std::size_t i);
  static double bucket_hi(std::size_t i);
  static double bucket_mid(std::size_t i);
};

/// Lock-free quantile histogram: add() is one relaxed fetch_add on a bucket
/// (plus CAS min/max maintenance).  There is deliberately no mean/sum — a
/// floating-point accumulation would make concurrent adds order-dependent.
class QuantileHisto {
 public:
  explicit QuantileHisto(std::string name);

  void add(double x);
  QuantileSnapshot snapshot() const;
  const std::string& name() const { return name_; }

 private:
  void clear();

  std::string name_;
  std::array<std::atomic<std::uint64_t>, kQuantileBuckets> buckets_{};
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> invalid_{0};
  std::atomic<std::uint64_t> min_bits_;
  std::atomic<std::uint64_t> max_bits_;

  friend void reset_registry_values();
};

/// Interned lookup; creates on first use.  Thread-safe; the returned
/// reference is valid for the process lifetime.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
QuantileHisto& quantile_histogram(const std::string& name);

/// Flat snapshot of every registered metric, sorted by name: counters and
/// gauges as `<name>`, quantile histograms as
/// `<name>.count/.min/.max/.p50/.p90/.p99/.p999`.
std::vector<std::pair<std::string, double>> metrics_snapshot();

/// Zeroes every registered metric's value (registrations survive).
void reset_registry_values();

}  // namespace chronosync::obs
