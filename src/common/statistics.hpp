// Streaming and batch statistics used by latency probes, deviation analyses,
// and the experiment reports.
#pragma once

#include <cstddef>
#include <vector>

namespace chronosync {

/// Numerically stable running mean/variance (Welford) with min/max tracking.
class RunningStats {
 public:
  void add(double x);
  /// Merges another accumulator (parallel reduction; Chan et al. update).
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return mean() * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch percentile over a copy of the samples (linear interpolation between
/// closest ranks, the same convention as numpy's default).
double percentile(std::vector<double> samples, double p);

}  // namespace chronosync
