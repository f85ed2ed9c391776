// Empirical CDF. Figure 1 of the paper is a CDF of background request
// intervals; Figure 4(a,b) are CDF-like curves over the fraction of a
// profile an adversary needs — both are rendered from Ecdf.
#pragma once

#include <cstddef>
#include <vector>

namespace locpriv::stats {

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
