#include "stats/chi_square.hpp"

#include <cmath>

#include "stats/special.hpp"
#include "util/expect.hpp"

namespace locpriv::stats {

double chi_square_cdf(double x, double dof) {
  LOCPRIV_EXPECT(dof > 0.0);
  LOCPRIV_EXPECT(x >= 0.0);
  return regularized_gamma_p(dof / 2.0, x / 2.0);
}

double chi_square_survival(double x, double dof) {
  LOCPRIV_EXPECT(dof > 0.0);
  LOCPRIV_EXPECT(x >= 0.0);
  return regularized_gamma_q(dof / 2.0, x / 2.0);
}

ChiSquareResult pearson_goodness_of_fit(const std::vector<double>& observed,
                                        const std::vector<double>& expected) {
  LOCPRIV_EXPECT(observed.size() == expected.size());
  LOCPRIV_EXPECT(!observed.empty());

  double observed_total = 0.0;
  double expected_total = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    LOCPRIV_EXPECT(observed[i] >= 0.0);
    LOCPRIV_EXPECT(expected[i] >= 0.0);
    observed_total += observed[i];
    expected_total += expected[i];
  }
  LOCPRIV_EXPECT(observed_total > 0.0);
  LOCPRIV_EXPECT(expected_total > 0.0);

  const double scale = observed_total / expected_total;
  double statistic = 0.0;
  std::size_t bins = 0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double e = expected[i] * scale;
    if (e <= 0.0) {
      // A category absent from the profile cannot contribute a finite term;
      // observing mass there is handled by the caller-side match logic (the
      // observed histogram having unknown keys already weakens the fit via
      // the rescaling of the remaining categories).
      continue;
    }
    const double diff = observed[i] - e;
    statistic += diff * diff / e;
    ++bins;
  }
  LOCPRIV_EXPECT(bins >= 2);

  ChiSquareResult result;
  result.statistic = statistic;
  result.bins = bins;
  result.dof = static_cast<double>(bins - 1);
  result.p_lower = chi_square_cdf(statistic, result.dof);
  result.p_upper = chi_square_survival(statistic, result.dof);
  return result;
}

}  // namespace locpriv::stats
