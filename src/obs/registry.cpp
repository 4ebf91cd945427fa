#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>

#include "obs/obs.hpp"

namespace chronosync::obs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// min/max maintenance for QuantileHisto: a CAS loop whose result depends
/// only on the set of values offered, not the order they race in.
void atomic_fmin(std::atomic<std::uint64_t>& bits, double x) {
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (x < std::bit_cast<double>(cur)) {
    if (bits.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(x),
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

void atomic_fmax(std::atomic<std::uint64_t>& bits, double x) {
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (x > std::bit_cast<double>(cur)) {
    if (bits.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(x),
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

struct RegistryStore {
  std::mutex mu;
  // std::map: stable addresses (node-based) + snapshot already name-sorted.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<QuantileHisto>> quantiles;
};

RegistryStore& store() {
  static RegistryStore* s = new RegistryStore();  // leaked: usable during exit
  return *s;
}

}  // namespace

void Counter::add(std::int64_t delta) {
  if (!metrics_enabled()) return;
  v_.fetch_add(delta, std::memory_order_relaxed);
}

void Gauge::set(double value) {
  if (!metrics_enabled()) return;
  bits_.store(std::bit_cast<std::uint64_t>(value), std::memory_order_relaxed);
}

std::size_t QuantileSnapshot::bucket_index(double x) {
  // frexp writes x = m * 2^e with m in [0.5, 1); the sub-bucket is the
  // mantissa scaled linearly across the octave.  Exact powers of two land on
  // sub-bucket 0 of their own octave, so bucket_lo is an inclusive bound.
  if (!std::isfinite(x)) return kQuantileBuckets - 1;  // +inf clamps to the top
  int e = 0;
  const double m = std::frexp(x, &e);
  const int octave = e - 1 - kQuantileMinExp;  // x in [2^(e-1), 2^e)
  if (octave < 0) return 0;
  if (octave >= kQuantileMaxExp - kQuantileMinExp) return kQuantileBuckets - 1;
  int sub = static_cast<int>((m - 0.5) * 2.0 * kQuantileSubBuckets);
  sub = std::min(sub, kQuantileSubBuckets - 1);
  return static_cast<std::size_t>(octave) * kQuantileSubBuckets +
         static_cast<std::size_t>(sub);
}

double QuantileSnapshot::bucket_lo(std::size_t i) {
  // Must mirror bucket_index exactly: sub-buckets split each octave linearly
  // in the mantissa, so sub-bucket s of octave o covers
  // [2^(minexp+o) * (1 + s/16), 2^(minexp+o) * (1 + (s+1)/16)).
  const std::size_t octave = i / kQuantileSubBuckets;
  const std::size_t sub = i % kQuantileSubBuckets;
  return std::exp2(kQuantileMinExp + static_cast<int>(octave)) *
         (1.0 + static_cast<double>(sub) / static_cast<double>(kQuantileSubBuckets));
}

double QuantileSnapshot::bucket_hi(std::size_t i) { return bucket_lo(i + 1); }

double QuantileSnapshot::bucket_mid(std::size_t i) {
  // Geometric midpoint: halves the worst-case relative error either way
  // (largest bucket ratio is 17/16, so the estimate is within ~3.1%).
  return std::sqrt(bucket_lo(i) * bucket_hi(i));
}

double QuantileSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(count)));
  rank = std::max<std::uint64_t>(rank, 1);
  if (rank <= underflow) return min;
  std::uint64_t cum = underflow;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= rank) return std::clamp(bucket_mid(i), min, max);
  }
  return max;  // unreachable when count is consistent with the buckets
}

QuantileHisto::QuantileHisto(std::string name)
    : name_(std::move(name)),
      min_bits_(std::bit_cast<std::uint64_t>(kInf)),
      max_bits_(std::bit_cast<std::uint64_t>(-kInf)) {}

void QuantileHisto::add(double x) {
  if (!metrics_enabled()) return;
  if (std::isnan(x)) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (x < QuantileSnapshot::bucket_lo(0)) {
    underflow_.fetch_add(1, std::memory_order_relaxed);
  } else {
    buckets_[QuantileSnapshot::bucket_index(x)].fetch_add(1, std::memory_order_relaxed);
  }
  atomic_fmin(min_bits_, x);
  atomic_fmax(max_bits_, x);
}

QuantileSnapshot QuantileHisto::snapshot() const {
  QuantileSnapshot snap;
  snap.underflow = underflow_.load(std::memory_order_relaxed);
  snap.invalid = invalid_.load(std::memory_order_relaxed);
  snap.buckets.reserve(kQuantileBuckets);
  snap.count = snap.underflow;
  for (const auto& bucket : buckets_) {
    snap.buckets.push_back(bucket.load(std::memory_order_relaxed));
    snap.count += snap.buckets.back();
  }
  if (snap.count > 0) {
    snap.min = std::bit_cast<double>(min_bits_.load(std::memory_order_relaxed));
    snap.max = std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
  }
  return snap;
}

void QuantileHisto::clear() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  underflow_.store(0, std::memory_order_relaxed);
  invalid_.store(0, std::memory_order_relaxed);
  min_bits_.store(std::bit_cast<std::uint64_t>(kInf), std::memory_order_relaxed);
  max_bits_.store(std::bit_cast<std::uint64_t>(-kInf), std::memory_order_relaxed);
}

Counter& counter(const std::string& name) {
  RegistryStore& s = store();
  const std::lock_guard<std::mutex> lock(s.mu);
  auto& slot = s.counters[name];
  if (!slot) slot = std::make_unique<Counter>(name);
  return *slot;
}

Gauge& gauge(const std::string& name) {
  RegistryStore& s = store();
  const std::lock_guard<std::mutex> lock(s.mu);
  auto& slot = s.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>(name);
  return *slot;
}

QuantileHisto& quantile_histogram(const std::string& name) {
  RegistryStore& s = store();
  const std::lock_guard<std::mutex> lock(s.mu);
  auto& slot = s.quantiles[name];
  if (!slot) slot = std::make_unique<QuantileHisto>(name);
  return *slot;
}

std::vector<std::pair<std::string, double>> metrics_snapshot() {
  RegistryStore& s = store();
  std::vector<std::pair<std::string, double>> out;
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    out.reserve(s.counters.size() + s.gauges.size() + 7 * s.quantiles.size());
    for (const auto& [name, c] : s.counters) {
      out.emplace_back(name, static_cast<double>(c->value()));
    }
    for (const auto& [name, g] : s.gauges) out.emplace_back(name, g->value());
    for (const auto& [name, q] : s.quantiles) {
      const QuantileSnapshot snap = q->snapshot();
      out.emplace_back(name + ".count", static_cast<double>(snap.count));
      out.emplace_back(name + ".min", snap.min);
      out.emplace_back(name + ".max", snap.max);
      out.emplace_back(name + ".p50", snap.quantile(0.50));
      out.emplace_back(name + ".p90", snap.quantile(0.90));
      out.emplace_back(name + ".p99", snap.quantile(0.99));
      out.emplace_back(name + ".p999", snap.quantile(0.999));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void reset_registry_values() {
  RegistryStore& s = store();
  const std::lock_guard<std::mutex> lock(s.mu);
  for (auto& [name, c] : s.counters) c->v_.store(0, std::memory_order_relaxed);
  for (auto& [name, g] : s.gauges) {
    g->bits_.store(std::bit_cast<std::uint64_t>(0.0), std::memory_order_relaxed);
  }
  for (auto& [name, q] : s.quantiles) q->clear();
}

}  // namespace chronosync::obs
