#include "privacy/adversary.hpp"

#include "stats/entropy.hpp"
#include "util/expect.hpp"

namespace locpriv::privacy {

Adversary::Adversary(std::vector<UserProfileHistograms> profiles)
    : profiles_(std::move(profiles)) {
  LOCPRIV_EXPECT(!profiles_.empty());
}

const UserProfileHistograms& Adversary::profile(std::size_t i) const {
  LOCPRIV_EXPECT(i < profiles_.size());
  return profiles_[i];
}

IdentificationResult Adversary::identify(const PatternHistogram& observed,
                                         Pattern pattern, const MatchParams& params,
                                         PosteriorWeighting weighting) const {
  IdentificationResult result;
  result.posterior.assign(profiles_.size(), 0.0);

  std::vector<double> weights(profiles_.size(), 0.0);
  double weight_total = 0.0;
  for (std::size_t i = 0; i < profiles_.size(); ++i) {
    const MatchResult match =
        match_histograms(observed, profiles_[i].histogram(pattern), params);
    if (!match.attempted || !match.matches) continue;
    result.matched.push_back(i);
    const double weight = weighting == PosteriorWeighting::kChiSquare
                              ? match.chi.statistic
                              : 1.0 / (1.0 + match.chi.statistic);
    weights[i] = weight;
    weight_total += weight;
  }

  if (result.matched.empty()) {
    // Nothing matched: the adversary cannot narrow the anonymity set at all.
    result.degree_of_anonymity = 1.0;
    result.entropy_bits = stats::max_entropy(profiles_.size());
    return result;
  }

  if (weight_total <= 0.0) {
    // Degenerate weights (e.g. a perfect fit with statistic 0 under the
    // paper's literal Formula 2): fall back to uniform over matches.
    for (const std::size_t i : result.matched)
      weights[i] = 1.0 / static_cast<double>(result.matched.size());
    weight_total = 1.0;
  }

  for (std::size_t i = 0; i < profiles_.size(); ++i)
    result.posterior[i] = weights[i] / weight_total;

  if (result.matched.size() == 1) {
    result.entropy_bits = 0.0;
    result.degree_of_anonymity = 0.0;
  } else {
    result.entropy_bits = stats::shannon_entropy(result.posterior);
    result.degree_of_anonymity =
        stats::degree_of_anonymity(result.posterior, profiles_.size());
  }
  return result;
}

}  // namespace locpriv::privacy
