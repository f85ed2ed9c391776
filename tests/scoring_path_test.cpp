// One scoring path: core::evaluate_defense scores each released stream with
// PrivacyAnalyzer::evaluate_collected, whose report carries the pattern-2
// identification. The attack written out by hand, as evaluate_defense ran
// it before, is the oracle: every DefenseOutcome field must equal it bit for
// bit, for the standard defense suite plus a defense that releases nothing,
// at 1 s and 60 s. The report's pattern-2 fields must agree with a direct
// Adversary::identify call on every outcome: no movement histogram,
// nothing matched, the user alone, and another user alone.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/analyzer.hpp"
#include "core/defense_eval.hpp"
#include "core/experiment.hpp"
#include "geo/geodesy.hpp"
#include "lppm/defense.hpp"
#include "mobility/synthesis.hpp"
#include "poi/clustering.hpp"
#include "privacy/metrics.hpp"
#include "trace/sampling.hpp"

namespace locpriv {
namespace {

struct Corpus {
  std::vector<geo::LatLon> homes;
  geo::LatLon anchor;
  core::PrivacyAnalyzer analyzer;
};

const Corpus& corpus() {
  static const Corpus corpus = [] {
    mobility::DatasetConfig config;
    config.user_count = 10;
    config.synthesis.days = 4;
    mobility::SyntheticDataset dataset = mobility::generate_dataset(config);
    std::vector<geo::LatLon> homes;
    for (const auto& profile : dataset.profiles)
      homes.push_back(dataset.poi_position(profile.home_poi()));
    const geo::LatLon anchor = dataset.city_config.anchor;
    return Corpus{std::move(homes), anchor,
                  core::PrivacyAnalyzer(core::experiment_analyzer_config(),
                                        std::move(dataset.users))};
  }();
  return corpus;
}

// evaluate_defense as it ran before it called the analyzer: the attack on
// the released stream written out stage by stage.
core::DefenseOutcome oracle_evaluate_defense(const core::PrivacyAnalyzer& analyzer,
                                             const lppm::Defense& defense,
                                             std::int64_t interval_s, std::uint64_t seed) {
  core::DefenseOutcome outcome;
  outcome.defense = defense.name();
  outcome.interval_s = interval_s;

  const double radius = analyzer.config().extraction.radius_m;
  std::size_t reference_total = 0;
  std::size_t recovered_total = 0;
  std::size_t sensitive_reference = 0;
  std::size_t sensitive_recovered = 0;
  std::size_t requested_fixes = 0;
  std::size_t released_fixes = 0;
  double error_sum = 0.0;
  std::size_t error_count = 0;

  stats::Rng rng(seed);
  for (std::size_t u = 0; u < analyzer.user_count(); ++u) {
    const core::UserReference& reference = analyzer.reference(u);
    const auto requested = interval_s <= 1
                               ? reference.points
                               : trace::decimate(reference.points, interval_s);
    stats::Rng user_rng = rng.fork();
    const auto released = defense.release(requested, user_rng);
    requested_fixes += requested.size();
    released_fixes += released.size();

    std::size_t true_index = 0;
    for (const auto& fix : released) {
      while (true_index < requested.size() &&
             requested[true_index].timestamp_s < fix.timestamp_s)
        ++true_index;
      if (true_index < requested.size() &&
          requested[true_index].timestamp_s == fix.timestamp_s) {
        error_sum += geo::haversine_m(requested[true_index].position, fix.position);
        ++error_count;
      }
    }

    const auto stays = poi::extract_stay_points(released, analyzer.config().extraction);
    const auto pois = poi::cluster_stay_points(stays, radius);
    const auto total = privacy::poi_recovery(reference.pois, pois, radius);
    const auto sensitive = privacy::sensitive_poi_recovery(reference.pois, pois, radius, 3);
    reference_total += total.reference_count;
    recovered_total += total.recovered_count;
    sensitive_reference += sensitive.reference_count;
    sensitive_recovered += sensitive.recovered_count;

    double anonymity = 1.0;
    const auto observed =
        privacy::build_histogram(privacy::Pattern::kMovements, pois, analyzer.grid());
    if (!observed.empty()) {
      const auto result = analyzer.adversary().identify(
          observed, privacy::Pattern::kMovements, analyzer.config().match);
      anonymity = result.degree_of_anonymity;
      if (result.matched.size() == 1 && result.matched.front() == u)
        ++outcome.users_identified;
    }
    outcome.mean_anonymity += anonymity;
  }

  const auto users = static_cast<double>(analyzer.user_count());
  outcome.mean_anonymity /= users;
  outcome.poi_total_fraction =
      reference_total == 0
          ? 1.0
          : static_cast<double>(recovered_total) / static_cast<double>(reference_total);
  outcome.poi_sensitive_fraction =
      sensitive_reference == 0 ? 1.0
                               : static_cast<double>(sensitive_recovered) /
                                     static_cast<double>(sensitive_reference);
  outcome.mean_position_error_m =
      error_count == 0 ? 0.0 : error_sum / static_cast<double>(error_count);
  outcome.release_ratio =
      requested_fixes == 0
          ? 0.0
          : static_cast<double>(released_fixes) / static_cast<double>(requested_fixes);
  return outcome;
}

// Releases nothing: every user scores through the zero-fix branch.
class NothingDefense final : public lppm::Defense {
 public:
  std::string name() const override { return "nothing"; }
  std::vector<trace::TracePoint> release(const std::vector<trace::TracePoint>&,
                                         stats::Rng&) const override {
    return {};
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(DefenseEvalProperty, EqualsTheHandWrittenAttack) {
  const Corpus& c = corpus();
  auto defenses = lppm::standard_suite(c.anchor, c.homes);
  defenses.push_back(std::make_unique<NothingDefense>());
  int identified = 0;
  for (const std::int64_t interval_s : {1, 60})
    for (const auto& defense : defenses) {
      SCOPED_TRACE(::testing::Message()
                   << defense->name() << " at " << interval_s << " s");
      const core::DefenseOutcome got =
          core::evaluate_defense(c.analyzer, *defense, interval_s, /*seed=*/29);
      const core::DefenseOutcome want =
          oracle_evaluate_defense(c.analyzer, *defense, interval_s, /*seed=*/29);
      EXPECT_EQ(got.defense, want.defense);
      EXPECT_EQ(got.interval_s, want.interval_s);
      EXPECT_TRUE(same_bits(got.poi_total_fraction, want.poi_total_fraction));
      EXPECT_TRUE(same_bits(got.poi_sensitive_fraction, want.poi_sensitive_fraction));
      EXPECT_EQ(got.users_identified, want.users_identified);
      EXPECT_TRUE(same_bits(got.mean_anonymity, want.mean_anonymity));
      EXPECT_TRUE(same_bits(got.mean_position_error_m, want.mean_position_error_m));
      EXPECT_TRUE(same_bits(got.release_ratio, want.release_ratio));
      identified += got.users_identified;
      if (defense->name() == "nothing") {
        EXPECT_EQ(got.release_ratio, 0.0);
        EXPECT_EQ(got.users_identified, 0);
      }
    }
  EXPECT_GT(identified, 0);
}

// The pattern-2 identification a direct Adversary::identify call gives on
// the PoIs extracted from `collected`, with `user` as the true user.
struct PatternTwo {
  std::optional<std::size_t> matches;
  bool identified = false;
};

PatternTwo direct_identification(const core::PrivacyAnalyzer& analyzer, std::size_t user,
                                 const std::vector<trace::TracePoint>& collected) {
  const poi::ExtractionParams& extraction = analyzer.config().extraction;
  const auto pois = poi::cluster_stay_points(
      poi::extract_stay_points(collected, extraction), extraction.radius_m);
  const auto observed = privacy::movement_histogram(pois, analyzer.grid());
  if (observed.empty()) return {};
  const auto result = analyzer.adversary().identify(
      observed, privacy::Pattern::kMovements, analyzer.config().match);
  return {result.matched.size(),
          result.matched.size() == 1 && result.matched.front() == user};
}

TEST(ExposureReport, PatternTwoFieldsMatchTheAdversary) {
  const core::PrivacyAnalyzer& analyzer = corpus().analyzer;
  const std::size_t users = analyzer.user_count();

  // (true user, collected fixes) cases: each user's own trace and the next
  // user's trace at several intervals, plus three built to hit the rare
  // outcomes — nothing collected, one place only, and a trace moved 1 degree
  // north, whose movement keys no profile holds.
  std::vector<std::pair<std::size_t, std::vector<trace::TracePoint>>> cases;
  for (std::size_t u = 0; u < users; ++u)
    for (const std::int64_t interval_s : {1, 60, 600, 3600, 7200}) {
      cases.emplace_back(u, trace::collect(analyzer.reference(u).points, interval_s));
      cases.emplace_back(
          u, trace::collect(analyzer.reference((u + 1) % users).points, interval_s));
    }
  cases.emplace_back(0, std::vector<trace::TracePoint>{});
  const trace::TracePoint first = analyzer.reference(0).points.front();
  std::vector<trace::TracePoint> one_place;
  for (std::int64_t t = 0; t < 7200; ++t)
    one_place.push_back({first.position, first.timestamp_s + t});
  cases.emplace_back(0, std::move(one_place));
  std::vector<trace::TracePoint> moved = analyzer.reference(0).points;
  for (auto& point : moved) point.position.lat_deg += 1.0;
  cases.emplace_back(0, std::move(moved));

  std::size_t no_histogram = 0;
  std::size_t none_matched = 0;
  std::size_t identified = 0;
  std::size_t someone_else = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [user, collected] = cases[i];
    SCOPED_TRACE(::testing::Message() << "case " << i << ", user " << user << ", "
                                      << collected.size() << " fixes");
    const core::ExposureReport report = analyzer.evaluate_collected(user, 60, collected);
    const PatternTwo want = direct_identification(analyzer, user, collected);
    ASSERT_EQ(report.matches_movements, want.matches);
    ASSERT_EQ(report.identified_movements, want.identified);
    if (!want.matches) {
      ++no_histogram;
      EXPECT_EQ(report.anonymity_movements, 1.0);
    } else if (*want.matches == 0) {
      ++none_matched;
      EXPECT_EQ(report.anonymity_movements, 1.0);
    } else if (want.identified) {
      ++identified;
      EXPECT_EQ(report.anonymity_movements, 0.0);
    } else if (*want.matches == 1) {
      ++someone_else;
    }
  }
  EXPECT_GE(no_histogram, 2u);
  EXPECT_GE(none_matched, 1u);
  EXPECT_GT(identified, 0u);
  EXPECT_GT(someone_else, 0u);
}

}  // namespace
}  // namespace locpriv
