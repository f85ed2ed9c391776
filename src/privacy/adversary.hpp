// The adversary: a third party holding profile histograms of N users who
// receives a stream of locations from an unknown user and tries to identify
// them (paper Section IV.B, Formulas 2-5).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "privacy/matching.hpp"
#include "privacy/pattern_histogram.hpp"

namespace locpriv::privacy {

/// Profile of one known user, under both pattern representations.
struct UserProfileHistograms {
  std::string user_id;
  PatternHistogram visits;     ///< Pattern 1.
  PatternHistogram movements;  ///< Pattern 2.

  const PatternHistogram& histogram(Pattern pattern) const {
    return pattern == Pattern::kVisits ? visits : movements;
  }
};

/// Result of one identification attempt.
struct IdentificationResult {
  /// Per-profile posterior, aligned with the adversary's profile order;
  /// zero for profiles that did not match. All-zero when nothing matched.
  std::vector<double> posterior;
  /// Indices of profiles whose His_bin matched.
  std::vector<std::size_t> matched;
  /// Degree of anonymity H(X)/log2(N) (paper Formula 5); 1.0 when nothing
  /// matched (the adversary learned nothing), 0.0 when exactly one profile
  /// matched (the user is identified).
  double degree_of_anonymity = 1.0;
  /// Shannon entropy of the posterior in bits (0 when <= 1 match).
  double entropy_bits = 0.0;

  /// The match set is exactly {user}: the adversary uniquely identified them.
  bool identifies(std::size_t user) const {
    return matched.size() == 1 && matched.front() == user;
  }
};

/// Holds the N profiles an adversary has acquired and answers
/// identification queries against them. Profiles are read-only after
/// construction, which also builds an inverted key index over them.
class Adversary {
 public:
  /// Takes ownership of the profile set. Precondition: non-empty.
  explicit Adversary(std::vector<UserProfileHistograms> profiles);

  std::size_t profile_count() const { return profiles_.size(); }
  const UserProfileHistograms& profile(std::size_t i) const;

  /// Matches `observed` (built with `pattern`) against every stored
  /// profile that could match it, then forms the posterior over the
  /// matching set and computes the anonymity metrics. The posterior is
  /// paper Formula 2, literal: p_i proportional to chi_i^2 among matches.
  /// The result is bit-identical to testing every profile in order: every
  /// profile skipped is one match_histograms would not attempt.
  IdentificationResult identify(const PatternHistogram& observed, Pattern pattern,
                                const MatchParams& params) const;

 private:
  /// Profile indices, ascending and without duplicates, that include every
  /// profile match_histograms would attempt for `observed`.
  std::vector<std::size_t> candidates(const PatternHistogram& observed,
                                      Pattern pattern, const MatchParams& params) const;

  std::vector<UserProfileHistograms> profiles_;
  /// Per pattern (visits, movements): every profile's (key, profile index)
  /// pairs, sorted.
  std::array<std::vector<std::pair<std::int64_t, std::size_t>>, 2> postings_;
};

}  // namespace locpriv::privacy
