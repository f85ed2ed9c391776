// Numeric histogram and empirical CDF. Figure 1 of the paper is a CDF of
// background request intervals; Figure 4(a,b) are CDF-like curves over the
// fraction of a profile an adversary needs — both are rendered from Ecdf.
#pragma once

#include <cstddef>
#include <vector>

namespace locpriv::stats {

/// Fixed-width binned histogram over doubles.
class BinnedHistogram {
 public:
  /// Bins [lo, hi) into `bin_count` equal-width bins; values outside the
  /// range are clamped into the first/last bin so no sample is dropped.
  /// Preconditions: lo < hi, bin_count > 0.
  BinnedHistogram(double lo, double hi, std::size_t bin_count);

  void add(double value);
  void add_all(const std::vector<double>& values);

  std::size_t bin_count() const { return counts_.size(); }
  std::size_t count(std::size_t bin) const;
  std::size_t total() const { return total_; }

  /// Inclusive lower edge of `bin`.
  double bin_lower(std::size_t bin) const;
  /// Exclusive upper edge of `bin`.
  double bin_upper(std::size_t bin) const;

  /// Counts normalised to fractions of the total (empty -> all zeros).
  std::vector<double> normalized() const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Empirical CDF of a sample.
class Ecdf {
 public:
  /// Builds from a sample (copied and sorted). Precondition: non-empty.
  explicit Ecdf(std::vector<double> sample);

  /// Fraction of samples <= x.
  double operator()(double x) const;

  /// Smallest sample value v with ECDF(v) >= q; q in (0, 1].
  double inverse(double q) const;

  std::size_t size() const { return sorted_.size(); }

 private:
  std::vector<double> sorted_;
};

}  // namespace locpriv::stats
