#include "stats/ecdf.hpp"

#include <algorithm>

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

}  // namespace locpriv::stats
