#include "privacy/adversary.hpp"

#include <algorithm>
#include <numeric>

#include "stats/entropy.hpp"
#include "util/expect.hpp"

namespace locpriv::privacy {

namespace {

std::size_t pattern_slot(Pattern pattern) { return pattern == Pattern::kVisits ? 0 : 1; }

}  // namespace

Adversary::Adversary(std::vector<UserProfileHistograms> profiles)
    : profiles_(std::move(profiles)) {
  LOCPRIV_EXPECT(!profiles_.empty());
  for (const Pattern pattern : {Pattern::kVisits, Pattern::kMovements}) {
    auto& postings = postings_[pattern_slot(pattern)];
    for (std::size_t i = 0; i < profiles_.size(); ++i)
      for (const auto& [key, count] : profiles_[i].histogram(pattern).counts())
        postings.emplace_back(key, i);
    std::sort(postings.begin(), postings.end());
  }
}

const UserProfileHistograms& Adversary::profile(std::size_t i) const {
  LOCPRIV_EXPECT(i < profiles_.size());
  return profiles_[i];
}

std::vector<std::size_t> Adversary::candidates(const PatternHistogram& observed,
                                               Pattern pattern,
                                               const MatchParams& params) const {
  std::vector<std::size_t> indices;
  // match_histograms attempts nothing below the minimum observed mass.
  if (observed.total() < params.min_observed_total) return indices;
  if (params.unseen_key_pseudo_count > 0.0) {
    // Observed-only keys then carry expected mass, so any profile may fit.
    indices.resize(profiles_.size());
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    return indices;
  }
  // Without pseudo-counts a profile that holds none of the observed keys
  // has zero overlap, which match_histograms rejects untested.
  const auto& postings = postings_[pattern_slot(pattern)];
  auto it = postings.begin();
  for (const auto& [key, count] : observed.counts()) {
    it = std::lower_bound(it, postings.end(), std::make_pair(key, std::size_t{0}));
    for (; it != postings.end() && it->first == key; ++it) indices.push_back(it->second);
  }
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  return indices;
}

IdentificationResult Adversary::identify(const PatternHistogram& observed,
                                         Pattern pattern, const MatchParams& params,
                                         PosteriorWeighting weighting) const {
  // match_histograms checks these too, but it may run on no profile at all.
  LOCPRIV_EXPECT(params.alpha > 0.0 && params.alpha < 1.0);
  LOCPRIV_EXPECT(params.unseen_key_pseudo_count >= 0.0);

  IdentificationResult result;
  result.posterior.assign(profiles_.size(), 0.0);

  // Candidates come in ascending order, so matches and the weight sum
  // accumulate exactly as a scan over every profile would.
  std::vector<double> weights(profiles_.size(), 0.0);
  double weight_total = 0.0;
  for (const std::size_t i : candidates(observed, pattern, params)) {
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
