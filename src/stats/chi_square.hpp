// Chi-square distribution and Pearson's goodness-of-fit test.
//
// The paper decides His_bin by comparing a histogram built from collected
// locations against the user's profile histogram with a chi-square
// goodness-of-fit test; it tests the *lower* tail (a small statistic means
// the observed histogram fits the profile suspiciously well, i.e. the
// released data exposes the user's habits). Both tails are exposed here so
// the ablation bench can contrast the choices.
#pragma once

#include <cstddef>
#include <vector>

namespace locpriv::stats {

/// CDF of the chi-square distribution with `dof` degrees of freedom,
/// evaluated at `x` (x >= 0, dof > 0). Equals P(dof/2, x/2).
double chi_square_cdf(double x, double dof);

/// Upper-tail probability 1 - CDF.
double chi_square_survival(double x, double dof);

/// Which tail of the statistic's distribution a test evaluates.
enum class ChiSquareTail {
  kLower,  // p = CDF(stat): small p means "fits better than chance" (paper).
  kUpper,  // p = 1 - CDF(stat): classical goodness-of-fit rejection.
};

/// Result of a Pearson goodness-of-fit test.
struct ChiSquareResult {
  double statistic = 0.0;   ///< Pearson X^2 = sum (obs-exp)^2 / exp.
  double dof = 0.0;         ///< Degrees of freedom (bins - 1).
  double p_lower = 0.0;     ///< CDF(statistic) — lower-tail p-value.
  double p_upper = 0.0;     ///< 1 - CDF(statistic) — upper-tail p-value.
  std::size_t bins = 0;     ///< Number of categories that entered the test.

  /// p-value for the requested tail.
  double p_value(ChiSquareTail tail) const {
    return tail == ChiSquareTail::kLower ? p_lower : p_upper;
  }
};

/// Pearson chi-square goodness-of-fit of `observed` counts against
/// `expected` counts.
///
/// The expected counts are rescaled so both vectors have the same total mass
/// (the profile and the collected trace cover different durations, so raw
/// counts are not comparable). Categories with zero expected count after
/// rescaling are skipped; at least two usable categories are required.
///
/// Preconditions: observed.size() == expected.size(), all entries >= 0,
/// both totals > 0.
ChiSquareResult pearson_goodness_of_fit(const std::vector<double>& observed,
                                        const std::vector<double>& expected);

}  // namespace locpriv::stats
