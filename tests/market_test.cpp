#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>

#include "market/analysis.hpp"
#include "market/catalog.hpp"
#include "market/categories.hpp"
#include "market/study.hpp"
#include "util/expect.hpp"

namespace locpriv::market {
namespace {

// The catalog is deterministic and takes ~10 ms; share it across tests.
const Catalog& test_catalog() {
  static const Catalog catalog = generate_catalog(CatalogConfig{});
  return catalog;
}

TEST(Categories, TwentyEightWellFormed) {
  std::set<std::string_view> names;
  std::set<std::string_view> slugs;
  for (int i = 0; i < kCategoryCount; ++i) {
    names.insert(category_name(i));
    slugs.insert(category_slug(i));
  }
  EXPECT_EQ(names.size(), 28u);
  EXPECT_EQ(slugs.size(), 28u);
  EXPECT_THROW(category_name(28), util::ContractViolation);
  EXPECT_THROW(category_name(-1), util::ContractViolation);
}

TEST(Categories, QuotaSumsExactlyAndRespectsCap) {
  const auto quota = allocate_declaring_quota(1137, 100);
  ASSERT_EQ(quota.size(), 28u);
  EXPECT_EQ(std::accumulate(quota.begin(), quota.end(), 0), 1137);
  for (const int q : quota) {
    EXPECT_GE(q, 0);
    EXPECT_LE(q, 100);
  }
  // High-propensity categories get more slots than low-propensity ones.
  int weather = -1;
  int comics = -1;
  for (int i = 0; i < kCategoryCount; ++i) {
    if (category_name(i) == "Weather") weather = quota[static_cast<std::size_t>(i)];
    if (category_name(i) == "Comics") comics = quota[static_cast<std::size_t>(i)];
  }
  EXPECT_GT(weather, comics);
}

TEST(Categories, QuotaEdgeCases) {
  const auto none = allocate_declaring_quota(0, 100);
  EXPECT_EQ(std::accumulate(none.begin(), none.end(), 0), 0);
  const auto full = allocate_declaring_quota(2800, 100);
  for (const int q : full) EXPECT_EQ(q, 100);
  EXPECT_THROW(allocate_declaring_quota(2801, 100), util::ContractViolation);
}

TEST(ProviderCombos, MatchTableOneColumns) {
  EXPECT_EQ(provider_combo_name(0), "gps");
  EXPECT_EQ(provider_combo_name(1), "network");
  EXPECT_EQ(provider_combo_name(2), "passive");
  EXPECT_EQ(provider_combo_name(3), "gps network");
  EXPECT_EQ(provider_combo_name(4), "gps passive");
  EXPECT_EQ(provider_combo_name(5), "network passive");
  EXPECT_EQ(provider_combo_name(6), "gps network passive");
  EXPECT_EQ(provider_combo_name(7), "fused network");
  EXPECT_THROW(provider_combo(8), util::ContractViolation);
}

TEST(Catalog, GroundTruthMarginalsMatchTargets) {
  const Catalog& catalog = test_catalog();
  const CalibrationTargets targets;
  ASSERT_EQ(catalog.size(), 2800u);

  int declaring = 0;
  int fine_only = 0;
  int coarse_only = 0;
  int functional = 0;
  int auto_start = 0;
  int background = 0;
  int background_auto = 0;
  for (const AppSpec& app : catalog) {
    if (app.manifest.declares_location()) ++declaring;
    if (app.manifest.declared_granularity() == "Fine") ++fine_only;
    if (app.manifest.declared_granularity() == "Coarse") ++coarse_only;
    if (app.behavior.uses_location) {
      ++functional;
      if (app.behavior.auto_start_on_launch) ++auto_start;
      if (app.behavior.continues_in_background) {
        ++background;
        if (app.behavior.auto_start_on_launch) ++background_auto;
      }
    }
  }
  EXPECT_EQ(declaring, targets.declaring);
  EXPECT_EQ(fine_only, targets.fine_only);
  EXPECT_EQ(coarse_only, targets.coarse_only);
  EXPECT_EQ(functional, targets.functional);
  EXPECT_EQ(auto_start, targets.functional_auto_start);
  EXPECT_EQ(background, targets.background);
  EXPECT_EQ(background_auto, targets.background_auto_start);
}

TEST(Catalog, EveryAppBehaviorConsistentWithPermissions) {
  // Ground-truth sanity: no app's behaviour requires a permission its
  // manifest lacks (the device would throw SecurityException otherwise).
  for (const AppSpec& app : test_catalog()) {
    if (!app.behavior.uses_location) continue;
    const android::PermissionSet held(app.manifest.uses_permissions);
    for (const auto provider : app.behavior.providers) {
      if (provider == android::LocationProvider::kGps) {
        EXPECT_TRUE(held.fine_location()) << app.package;
      }
      if (provider == android::LocationProvider::kFused &&
          app.behavior.requested_granularity == android::Granularity::kFine) {
        EXPECT_TRUE(held.fine_location()) << app.package;
      }
      EXPECT_TRUE(held.any_location()) << app.package;
    }
    EXPECT_FALSE(app.behavior.providers.empty()) << app.package;
    EXPECT_GE(app.behavior.request_interval_s, 1) << app.package;
  }
}

TEST(Catalog, PackagesUniqueAndWellFormed) {
  std::set<std::string> packages;
  for (const AppSpec& app : test_catalog()) {
    EXPECT_TRUE(packages.insert(app.package).second) << "duplicate " << app.package;
    EXPECT_EQ(app.manifest.package_name, app.package);
    EXPECT_GE(app.rank, 0);
    EXPECT_LT(app.rank, 100);
  }
}

TEST(Catalog, DeterministicForSameSeed) {
  const Catalog a = generate_catalog(CatalogConfig{});
  const Catalog b = generate_catalog(CatalogConfig{});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].package, b[i].package);
    EXPECT_EQ(a[i].behavior.uses_location, b[i].behavior.uses_location);
    EXPECT_EQ(a[i].behavior.request_interval_s, b[i].behavior.request_interval_s);
  }
}

TEST(Catalog, DifferentSeedDifferentAssignment) {
  CatalogConfig other;
  other.seed = 999;
  const Catalog a = test_catalog();
  const Catalog b = generate_catalog(other);
  int differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].manifest.declares_location() != b[i].manifest.declares_location())
      ++differing;
  EXPECT_GT(differing, 100);
}

TEST(Catalog, InvalidTargetsRejected) {
  CatalogConfig config;
  config.targets.background = 50;  // Table I rows no longer sum to this.
  EXPECT_THROW(generate_catalog(config), util::ContractViolation);
  config = CatalogConfig{};
  config.targets.interval_band_counts = {10, 10, 10, 10};  // Sum != 102.
  EXPECT_THROW(generate_catalog(config), util::ContractViolation);
}

TEST(StaticAnalysis, ReadsOnlyTheManifest) {
  AppSpec app;
  app.package = "com.test.x";
  app.manifest.package_name = app.package;
  app.manifest.uses_permissions = {android::Permission::kAccessFineLocation};
  // Behaviour deliberately inconsistent with the manifest: static analysis
  // must not look at it.
  app.behavior.uses_location = false;
  const StaticFinding finding = analyze_manifest(app);
  EXPECT_TRUE(finding.declares_location);
  EXPECT_EQ(finding.granularity_claim, "Fine");
}

TEST(DynamicTester, ObservesBackgroundApp) {
  AppSpec app;
  app.package = "com.test.bg";
  app.manifest.package_name = app.package;
  app.manifest.uses_permissions = {android::Permission::kAccessFineLocation};
  app.behavior.uses_location = true;
  app.behavior.auto_start_on_launch = true;
  app.behavior.continues_in_background = true;
  app.behavior.providers = {android::LocationProvider::kGps};
  app.behavior.request_interval_s = 5;

  DynamicTester tester(1);
  const DynamicObservation observation = tester.test(app);
  EXPECT_TRUE(observation.functions);
  EXPECT_TRUE(observation.auto_start);
  EXPECT_TRUE(observation.background_access);
  EXPECT_TRUE(observation.uses_precise);
  EXPECT_EQ(observation.background_interval_s, 5);
  ASSERT_EQ(observation.background_providers.size(), 1u);
  EXPECT_EQ(observation.background_providers[0], android::LocationProvider::kGps);
  EXPECT_GT(observation.deliveries, 0u);
}

TEST(DynamicTester, ObservesForegroundOnlyApp) {
  AppSpec app;
  app.package = "com.test.fg";
  app.manifest.package_name = app.package;
  app.manifest.uses_permissions = {android::Permission::kAccessFineLocation};
  app.behavior.uses_location = true;
  app.behavior.auto_start_on_launch = false;  // Needs the user trigger.
  app.behavior.continues_in_background = false;
  app.behavior.providers = {android::LocationProvider::kNetwork};
  app.behavior.request_interval_s = 30;

  DynamicTester tester(1);
  const DynamicObservation observation = tester.test(app);
  EXPECT_TRUE(observation.functions);
  EXPECT_FALSE(observation.auto_start);
  EXPECT_FALSE(observation.background_access);
  EXPECT_TRUE(observation.background_providers.empty());
}

TEST(DynamicTester, ObservesOverPrivilegedApp) {
  AppSpec app;
  app.package = "com.test.lazy";
  app.manifest.package_name = app.package;
  app.manifest.uses_permissions = {android::Permission::kAccessCoarseLocation};
  // Declares the permission, never uses it.
  DynamicTester tester(1);
  const DynamicObservation observation = tester.test(app);
  EXPECT_FALSE(observation.functions);
  EXPECT_FALSE(observation.auto_start);
  EXPECT_FALSE(observation.background_access);
  EXPECT_EQ(observation.deliveries, 0u);
}

// The full study is the subject of bench_market_stats; here we verify the
// pipeline recovers the calibrated ground truth end to end.
TEST(MarketStudy, RecoversPaperHeadlineNumbers) {
  const MarketReport report = run_market_study(test_catalog(), /*device_seed=*/7);
  const CalibrationTargets targets;
  EXPECT_EQ(report.total_apps, 2800);
  EXPECT_EQ(report.declaring, targets.declaring);
  EXPECT_EQ(report.fine_only, targets.fine_only);
  EXPECT_EQ(report.coarse_only, targets.coarse_only);
  EXPECT_EQ(report.both, targets.declaring - targets.fine_only - targets.coarse_only);
  EXPECT_EQ(report.functional, targets.functional);
  EXPECT_EQ(report.functional_auto, targets.functional_auto_start);
  EXPECT_EQ(report.background, targets.background);
  EXPECT_EQ(report.background_auto, targets.background_auto_start);
  // Paper: 96 of the 102 claim fine, 6 coarse; 68 precise; 28 coarse-despite-fine.
  EXPECT_EQ(report.background_claim_fine, 96);
  EXPECT_EQ(report.background_claim_coarse, 6);
  EXPECT_EQ(report.background_precise, 68);
  EXPECT_EQ(report.background_coarse_despite_fine, 28);
}

TEST(MarketStudy, TableOneMatrixRecovered) {
  const MarketReport report = run_market_study(test_catalog(), 7);
  const CalibrationTargets targets;
  for (int row = 0; row < kGranularityClaimCount; ++row)
    for (int combo = 0; combo < kProviderComboCount; ++combo)
      EXPECT_EQ(report.provider_matrix[static_cast<std::size_t>(row)]
                                      [static_cast<std::size_t>(combo)],
                targets.background_provider_matrix[static_cast<std::size_t>(row)]
                                                  [static_cast<std::size_t>(combo)])
          << "row " << row << " combo " << combo;
}

TEST(MarketStudy, IntervalBandsMatchFigureOne) {
  const MarketReport report = run_market_study(test_catalog(), 7);
  ASSERT_EQ(report.background_intervals.size(), 102u);
  int band[4] = {0, 0, 0, 0};
  std::int64_t max_interval = 0;
  for (const std::int64_t interval : report.background_intervals) {
    if (interval <= 10) ++band[0];
    else if (interval <= 60) ++band[1];
    else if (interval <= 600) ++band[2];
    else ++band[3];
    max_interval = std::max(max_interval, interval);
  }
  const CalibrationTargets targets;
  EXPECT_EQ(band[0], targets.interval_band_counts[0]);
  EXPECT_EQ(band[1], targets.interval_band_counts[1]);
  EXPECT_EQ(band[2], targets.interval_band_counts[2]);
  EXPECT_EQ(band[3], targets.interval_band_counts[3]);
  EXPECT_EQ(max_interval, 7200);  // The single slowest app.
}

}  // namespace
}  // namespace locpriv::market
