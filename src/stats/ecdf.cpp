#include "stats/ecdf.hpp"

#include <algorithm>
#include <cmath>

#include "util/expect.hpp"

namespace locpriv::stats {

Ecdf::Ecdf(std::vector<double> sample) : sorted_(std::move(sample)) {
  LOCPRIV_EXPECT(!sorted_.empty());
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::operator()(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double Ecdf::inverse(double q) const {
  LOCPRIV_EXPECT(q > 0.0 && q <= 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted_.size())));
  return sorted_[std::min(rank == 0 ? 0 : rank - 1, sorted_.size() - 1)];
}

}  // namespace locpriv::stats
