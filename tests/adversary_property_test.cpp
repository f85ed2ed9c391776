// Adversary property test: identify tests only the candidate profiles its
// inverted key index yields, and must return exactly what a scan that
// matches every profile returns — the matched set equal, the posterior,
// degree of anonymity and entropy equal bit for bit — across corpus seeds x
// prefixes x intervals x patterns x match parameters, and on
// hand-built profile sets. Bad match parameters must still throw when no
// profile is a candidate. A metamorphic test checks that the order users
// are loaded in changes no per-user result.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/analyzer.hpp"
#include "mobility/synthesis.hpp"
#include "poi/clustering.hpp"
#include "poi/staypoint.hpp"
#include "privacy/adversary.hpp"
#include "stats/entropy.hpp"
#include "stats/rng.hpp"
#include "trace/sampling.hpp"
#include "util/expect.hpp"

namespace locpriv {
namespace {

using privacy::Adversary;
using privacy::IdentificationResult;
using privacy::MatchParams;
using privacy::Pattern;
using privacy::PatternHistogram;
using privacy::UserProfileHistograms;

constexpr std::uint64_t kSeeds[] = {11, 12, 13};
constexpr double kFractions[] = {0.1, 0.3, 1.0};
constexpr std::int64_t kIntervals[] = {1, 60, 600};
constexpr Pattern kPatterns[] = {Pattern::kVisits, Pattern::kMovements};

// The oracle: Adversary::identify as it ran before the key index, matching
// every stored profile in order and then forming the posterior.
IdentificationResult scan_identify(const Adversary& adversary,
                                   const PatternHistogram& observed, Pattern pattern,
                                   const MatchParams& params) {
  const std::size_t profile_count = adversary.profile_count();
  IdentificationResult result;
  result.posterior.assign(profile_count, 0.0);

  std::vector<double> weights(profile_count, 0.0);
  double weight_total = 0.0;
  for (std::size_t i = 0; i < profile_count; ++i) {
    const privacy::MatchResult match = privacy::match_histograms(
        observed, adversary.profile(i).histogram(pattern), params);
    if (!match.attempted || !match.matches) continue;
    result.matched.push_back(i);
    // Paper Formula 2: weight proportional to chi^2 among the matches.
    weights[i] = match.chi.statistic;
    weight_total += match.chi.statistic;
  }

  if (result.matched.empty()) {
    result.degree_of_anonymity = 1.0;
    result.entropy_bits = stats::max_entropy(profile_count);
    return result;
  }

  if (weight_total <= 0.0) {
    for (const std::size_t i : result.matched)
      weights[i] = 1.0 / static_cast<double>(result.matched.size());
    weight_total = 1.0;
  }

  for (std::size_t i = 0; i < profile_count; ++i)
    result.posterior[i] = weights[i] / weight_total;

  if (result.matched.size() == 1) {
    result.entropy_bits = 0.0;
    result.degree_of_anonymity = 0.0;
  } else {
    result.entropy_bits = stats::shannon_entropy(result.posterior);
    result.degree_of_anonymity =
        stats::degree_of_anonymity(result.posterior, profile_count);
  }
  return result;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult same_result(const IdentificationResult& got,
                                       const IdentificationResult& want) {
  if (got.matched != want.matched)
    return ::testing::AssertionFailure() << got.matched.size() << " matches, the scan found "
                                         << want.matched.size();
  if (got.posterior.size() != want.posterior.size())
    return ::testing::AssertionFailure() << "posterior over " << got.posterior.size()
                                         << " profiles, expected " << want.posterior.size();
  for (std::size_t i = 0; i < got.posterior.size(); ++i)
    if (!same_bits(got.posterior[i], want.posterior[i]))
      return ::testing::AssertionFailure() << "posterior[" << i << "] " << got.posterior[i]
                                           << " vs " << want.posterior[i];
  if (!same_bits(got.degree_of_anonymity, want.degree_of_anonymity))
    return ::testing::AssertionFailure() << "degree of anonymity " << got.degree_of_anonymity
                                         << " vs " << want.degree_of_anonymity;
  if (!same_bits(got.entropy_bits, want.entropy_bits))
    return ::testing::AssertionFailure() << "entropy " << got.entropy_bits << " vs "
                                         << want.entropy_bits;
  return ::testing::AssertionSuccess();
}

// The default, smoothing on, KS, the paper-literal lower tail, and the two
// extremes of the minimum observed mass.
std::vector<std::pair<std::string, MatchParams>> param_cases() {
  MatchParams smoothed;
  smoothed.unseen_key_pseudo_count = 0.5;
  MatchParams ks;
  ks.test = privacy::MatchTest::kKolmogorovSmirnov;
  MatchParams lower;
  lower.tail = stats::ChiSquareTail::kLower;
  MatchParams no_minimum;
  no_minimum.min_observed_total = 0.0;
  MatchParams unreachable_minimum;
  unreachable_minimum.min_observed_total = 1e9;
  return {{"default", MatchParams{}},   {"pseudo 0.5", smoothed},
          {"ks", ks},                   {"lower tail", lower},
          {"min total 0", no_minimum}, {"min total 1e9", unreachable_minimum}};
}

// Every params identification of `observed` equals the scan's.
void expect_same_as_scan(const Adversary& adversary, const PatternHistogram& observed,
                         Pattern pattern) {
  for (const auto& [name, params] : param_cases()) {
    SCOPED_TRACE(::testing::Message() << name << ", pattern " << static_cast<int>(pattern));
    EXPECT_TRUE(same_result(adversary.identify(observed, pattern, params),
                            scan_identify(adversary, observed, pattern, params)));
  }
}

TEST(AdversaryProperty, IdentifyMatchesTheFullScanOnCorpora) {
  std::size_t unique_matches = 0;
  std::size_t multiple_matches = 0;
  for (const std::uint64_t seed : kSeeds) {
    mobility::DatasetConfig dataset;
    dataset.seed = seed;
    dataset.user_count = 24;
    dataset.synthesis.days = 4;
    const core::PrivacyAnalyzer analyzer =
        core::PrivacyAnalyzer::from_synthetic(core::AnalyzerConfig{}, dataset);
    const poi::ExtractionParams& extraction = analyzer.config().extraction;
    for (std::size_t u = 0; u < analyzer.user_count(); ++u) {
      for (const double fraction : kFractions) {
        const auto prefix = trace::take_prefix_fraction(analyzer.reference(u).points, fraction);
        for (const std::int64_t interval : kIntervals) {
          const auto collected = interval <= 1 ? prefix : trace::decimate(prefix, interval);
          const auto pois = poi::cluster_stay_points(
              poi::extract_stay_points(collected, extraction), extraction.radius_m);
          for (const Pattern pattern : kPatterns) {
            SCOPED_TRACE(::testing::Message() << "seed " << seed << ", user " << u
                                              << ", prefix " << fraction << ", interval "
                                              << interval << " s");
            const PatternHistogram observed =
                privacy::build_histogram(pattern, pois, analyzer.grid());
            expect_same_as_scan(analyzer.adversary(), observed, pattern);
            const std::size_t matched =
                analyzer.adversary()
                    .identify(observed, pattern, analyzer.config().match)
                    .matched.size();
            unique_matches += matched == 1 ? 1 : 0;
            multiple_matches += matched > 1 ? 1 : 0;
          }
        }
      }
    }
  }
  // The corpora exercise both outcomes the posterior code distinguishes.
  EXPECT_GT(unique_matches, 0u);
  EXPECT_GT(multiple_matches, 0u);
}

PatternHistogram histogram_from(std::initializer_list<std::pair<int, double>> items) {
  PatternHistogram histogram;
  for (const auto& [key, count] : items) histogram.add(key, count);
  return histogram;
}

// Movement keys are the visit keys + 1000, so a lookup in the other
// pattern's index finds no candidate.
UserProfileHistograms hand_profile(const std::string& id,
                                   std::initializer_list<std::pair<int, double>> items) {
  UserProfileHistograms profile;
  profile.user_id = id;
  for (const auto& [key, count] : items) {
    profile.visits.add(key, count);
    profile.movements.add(key + 1000, count);
  }
  return profile;
}

PatternHistogram as_pattern(const PatternHistogram& visits, Pattern pattern) {
  if (pattern == Pattern::kVisits) return visits;
  PatternHistogram movements;
  for (const auto& [key, count] : visits.counts()) movements.add(key + 1000, count);
  return movements;
}

// Profiles with 0 keys and with 1 key, two identical profiles, and others
// that share some keys with them.
std::vector<UserProfileHistograms> mixed_profiles() {
  return {hand_profile("empty", {}),
          hand_profile("single", {{1, 10.0}}),
          hand_profile("a", {{1, 30.0}, {2, 15.0}, {3, 5.0}}),
          hand_profile("a-twin", {{1, 30.0}, {2, 15.0}, {3, 5.0}}),
          hand_profile("b", {{1, 5.0}, {2, 30.0}, {4, 15.0}}),
          hand_profile("c", {{7, 30.0}, {8, 20.0}})};
}

// Key 1 is held by every profile.
std::vector<UserProfileHistograms> shared_key_profiles() {
  return {hand_profile("a", {{1, 30.0}, {2, 15.0}, {3, 5.0}}),
          hand_profile("b", {{1, 20.0}, {4, 30.0}}),
          hand_profile("c", {{1, 10.0}, {7, 30.0}, {8, 20.0}}),
          hand_profile("d", {{1, 12.0}, {2, 6.0}, {9, 2.0}})};
}

std::vector<PatternHistogram> hand_observations() {
  return {histogram_from({{900, 10.0}, {901, 10.0}}),           // Shares no key.
          histogram_from({{1, 2.0}, {2, 1.0}}),                 // Below the minimum total.
          histogram_from({{1, 10.0}, {900, 5.0}}),              // Only the common key.
          histogram_from({{1, 30.0}, {2, 15.0}, {3, 5.0}}),     // Equal to "a".
          histogram_from({{1, 12.0}, {2, 6.0}, {3, 2.0}}),      // Proportional to "a".
          histogram_from({{2, 9.0}, {4, 4.0}, {8, 3.0}}),       // Spans several profiles.
          PatternHistogram{}};
}

TEST(AdversaryProperty, IdentifyMatchesTheFullScanOnHandBuiltProfiles) {
  for (const auto& profiles : {mixed_profiles(), shared_key_profiles()}) {
    const Adversary adversary(profiles);
    for (const PatternHistogram& visits : hand_observations())
      for (const Pattern pattern : kPatterns)
        expect_same_as_scan(adversary, as_pattern(visits, pattern), pattern);
  }
  // The observation equal to "a" fits both twins with statistic 0, so the
  // literal Formula 2 weights sum to 0: the uniform fallback is covered.
  const IdentificationResult twins = Adversary(mixed_profiles())
                                         .identify(hand_observations()[3], Pattern::kVisits,
                                                   MatchParams{});
  ASSERT_EQ(twins.matched, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(twins.posterior[2], 0.5);
  EXPECT_EQ(twins.posterior[3], 0.5);
}

TEST(Adversary, InvalidParamsThrowWithoutCandidates) {
  // The scan's first match_histograms call rejected bad parameters; identify
  // must still reject them when no profile is a candidate to test.
  const Adversary adversary(mixed_profiles());
  MatchParams alpha_zero;
  alpha_zero.alpha = 0.0;
  MatchParams alpha_one;
  alpha_one.alpha = 1.0;
  MatchParams negative_pseudo;
  negative_pseudo.unseen_key_pseudo_count = -1.0;
  MatchParams nan_pseudo;
  nan_pseudo.unseen_key_pseudo_count = std::numeric_limits<double>::quiet_NaN();
  const PatternHistogram disjoint = histogram_from({{900, 10.0}, {901, 10.0}});
  const PatternHistogram scarce = histogram_from({{1, 2.0}, {2, 1.0}});
  for (const PatternHistogram& observed : {disjoint, scarce})
    for (const MatchParams& params : {alpha_zero, alpha_one, negative_pseudo, nan_pseudo})
      for (const Pattern pattern : kPatterns)
        EXPECT_THROW(adversary.identify(observed, pattern, params), util::ContractViolation);
}

std::set<std::string> matched_ids(const core::PrivacyAnalyzer& analyzer,
                                  const std::vector<std::size_t>& matched) {
  std::set<std::string> ids;
  for (const std::size_t i : matched) ids.insert(analyzer.reference(i).user_id);
  return ids;
}

TEST(AnalyzerMetamorphic, UserOrderLeavesPerUserResultsUnchanged) {
  mobility::DatasetConfig dataset;
  dataset.user_count = 12;
  dataset.synthesis.days = 4;
  std::vector<trace::UserTrace> users = mobility::generate_dataset(dataset).users;
  std::vector<trace::UserTrace> shuffled = users;
  stats::Rng rng(20170605);
  rng.shuffle(shuffled);
  const core::PrivacyAnalyzer generated(core::AnalyzerConfig{}, std::move(users));
  const core::PrivacyAnalyzer permuted(core::AnalyzerConfig{}, std::move(shuffled));

  std::map<std::string, std::size_t> permuted_index;
  for (std::size_t v = 0; v < permuted.user_count(); ++v)
    permuted_index[permuted.reference(v).user_id] = v;
  ASSERT_EQ(permuted_index.size(), generated.user_count());

  std::size_t moved = 0;
  for (std::size_t u = 0; u < generated.user_count(); ++u) {
    const std::size_t v = permuted_index.at(generated.reference(u).user_id);
    moved += v != u ? 1 : 0;
    for (const std::int64_t interval : kIntervals) {
      SCOPED_TRACE(::testing::Message() << "user " << generated.reference(u).user_id
                                        << ", interval " << interval << " s");
      const core::ExposureReport a = generated.evaluate_exposure(u, interval);
      const core::ExposureReport b = permuted.evaluate_exposure(v, interval);
      EXPECT_EQ(a.collected_fixes, b.collected_fixes);
      EXPECT_EQ(a.extracted_pois, b.extracted_pois);
      EXPECT_EQ(a.poi_total.reference_count, b.poi_total.reference_count);
      EXPECT_EQ(a.poi_total.recovered_count, b.poi_total.recovered_count);
      EXPECT_EQ(a.poi_sensitive.reference_count, b.poi_sensitive.reference_count);
      EXPECT_EQ(a.poi_sensitive.recovered_count, b.poi_sensitive.recovered_count);
      EXPECT_EQ(a.hisbin_visits, b.hisbin_visits);
      EXPECT_EQ(a.hisbin_movements, b.hisbin_movements);
      // The weight sum runs in profile order, so only the last bits may move.
      EXPECT_NEAR(a.anonymity_visits, b.anonymity_visits, 1e-12);
      EXPECT_NEAR(a.anonymity_movements, b.anonymity_movements, 1e-12);

      const auto pois_a = generated.collected_pois(u, interval);
      const auto pois_b = permuted.collected_pois(v, interval);
      for (const Pattern pattern : kPatterns) {
        const PatternHistogram observed_a =
            privacy::build_histogram(pattern, pois_a, generated.grid());
        const PatternHistogram observed_b =
            privacy::build_histogram(pattern, pois_b, permuted.grid());
        EXPECT_EQ(observed_a.counts(), observed_b.counts());
        EXPECT_EQ(matched_ids(generated, generated.adversary()
                                             .identify(observed_a, pattern,
                                                       generated.config().match)
                                             .matched),
                  matched_ids(permuted, permuted.adversary()
                                            .identify(observed_b, pattern,
                                                      permuted.config().match)
                                            .matched));
      }
    }
  }
  EXPECT_GT(moved, 0u);
}

}  // namespace
}  // namespace locpriv
