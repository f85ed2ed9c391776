#include "market/catalog.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "market/categories.hpp"
#include "stats/rng.hpp"
#include "util/expect.hpp"

namespace locpriv::market {

using android::Granularity;
using android::LocationProvider;
using android::Permission;

std::vector<LocationProvider> provider_combo(int combo) {
  switch (combo) {
    case 0: return {LocationProvider::kGps};
    case 1: return {LocationProvider::kNetwork};
    case 2: return {LocationProvider::kPassive};
    case 3: return {LocationProvider::kGps, LocationProvider::kNetwork};
    case 4: return {LocationProvider::kGps, LocationProvider::kPassive};
    case 5: return {LocationProvider::kNetwork, LocationProvider::kPassive};
    case 6:
      return {LocationProvider::kGps, LocationProvider::kNetwork,
              LocationProvider::kPassive};
    case 7: return {LocationProvider::kFused, LocationProvider::kNetwork};
    default: break;
  }
  LOCPRIV_EXPECT(false && "combo out of range");
  return {};
}

std::string provider_combo_name(int combo) {
  return android::provider_combo_label(provider_combo(combo));
}

namespace {

// Representative interval values (seconds) inside each Figure 1 band.
const std::vector<std::int64_t> kBandValues[4] = {
    {1, 2, 3, 5, 8, 10},
    {15, 20, 30, 45, 60},
    {90, 120, 180, 300, 600},
    {900, 1200, 1800, 3600},
};

std::vector<Permission> permissions_for(GranularityClaim claim) {
  switch (claim) {
    case GranularityClaim::kFineOnly: return {Permission::kAccessFineLocation};
    case GranularityClaim::kCoarseOnly: return {Permission::kAccessCoarseLocation};
    case GranularityClaim::kBoth:
      return {Permission::kAccessFineLocation, Permission::kAccessCoarseLocation};
  }
  return {};
}

// Sanity-checks the calibration targets before generation.
void validate_targets(const CalibrationTargets& t) {
  LOCPRIV_EXPECT(t.total_apps == kCategoryCount * 100);
  LOCPRIV_EXPECT(t.declaring > 0 && t.declaring <= t.total_apps);
  LOCPRIV_EXPECT(t.fine_only + t.coarse_only <= t.declaring);
  LOCPRIV_EXPECT(t.functional <= t.declaring);
  LOCPRIV_EXPECT(t.functional_auto_start <= t.functional);
  LOCPRIV_EXPECT(t.background <= t.functional);
  LOCPRIV_EXPECT(t.background_auto_start <= t.background);

  int matrix_total = 0;
  for (const auto& row : t.background_provider_matrix)
    for (const int cell : row) {
      LOCPRIV_EXPECT(cell >= 0);
      matrix_total += cell;
    }
  LOCPRIV_EXPECT(matrix_total == t.background);

  int band_total = 0;
  for (const int band : t.interval_band_counts) band_total += band;
  LOCPRIV_EXPECT(band_total == t.background);

  // Permission consistency: gps and fine-fused combos are impossible for
  // coarse-only apps.
  const auto& coarse_row = t.background_provider_matrix[1];
  LOCPRIV_EXPECT(coarse_row[0] == 0 && coarse_row[3] == 0 && coarse_row[4] == 0 &&
                 coarse_row[6] == 0 && coarse_row[7] == 0);
}

std::string make_package(int category, int rank) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "com.%s.app%03d",
                std::string(category_slug(category)).c_str(), rank);
  return buffer;
}

}  // namespace

Catalog generate_catalog(const CatalogConfig& config) {
  const CalibrationTargets& targets = config.targets;
  validate_targets(targets);
  stats::Rng rng(config.seed);

  // 1. Build the 2,800 skeletons.
  Catalog catalog;
  catalog.reserve(static_cast<std::size_t>(targets.total_apps));
  for (int category = 0; category < kCategoryCount; ++category) {
    for (int rank = 0; rank < 100; ++rank) {
      AppSpec app;
      app.package = make_package(category, rank);
      app.category = category;
      app.rank = rank;
      app.manifest.package_name = app.package;
      catalog.push_back(std::move(app));
    }
  }

  // 2. Pick which apps declare location, honouring per-category quotas.
  const std::vector<int> quota = allocate_declaring_quota(targets.declaring, 100);
  std::vector<std::size_t> declaring_indices;
  for (int category = 0; category < kCategoryCount; ++category) {
    std::vector<std::size_t> ranks(100);
    for (std::size_t r = 0; r < 100; ++r)
      ranks[r] = static_cast<std::size_t>(category) * 100 + r;
    rng.shuffle(ranks);
    for (int k = 0; k < quota[static_cast<std::size_t>(category)]; ++k)
      declaring_indices.push_back(ranks[static_cast<std::size_t>(k)]);
  }
  LOCPRIV_ENSURE(static_cast<int>(declaring_indices.size()) == targets.declaring);

  // 3. Granularity claims: fine-only / coarse-only / both quotas.
  rng.shuffle(declaring_indices);
  std::vector<std::size_t> fine_pool;
  std::vector<std::size_t> coarse_pool;
  std::vector<std::size_t> both_pool;
  for (std::size_t i = 0; i < declaring_indices.size(); ++i) {
    const std::size_t app = declaring_indices[i];
    GranularityClaim claim;
    if (static_cast<int>(i) < targets.fine_only) {
      claim = GranularityClaim::kFineOnly;
      fine_pool.push_back(app);
    } else if (static_cast<int>(i) < targets.fine_only + targets.coarse_only) {
      claim = GranularityClaim::kCoarseOnly;
      coarse_pool.push_back(app);
    } else {
      claim = GranularityClaim::kBoth;
      both_pool.push_back(app);
    }
    catalog[app].manifest.uses_permissions = permissions_for(claim);
  }

  // 4. Background apps: Table I fixes how many come from each claim row.
  const auto row_sum = [&](int row) {
    int sum = 0;
    for (const int cell : targets.background_provider_matrix[static_cast<std::size_t>(row)])
      sum += cell;
    return sum;
  };
  std::vector<std::size_t> background_apps;
  std::vector<int> background_rows;  // Parallel: Table I row per app.
  const std::vector<std::size_t>* pools[3] = {&fine_pool, &coarse_pool, &both_pool};
  std::size_t pool_taken[3] = {0, 0, 0};
  for (int row = 0; row < kGranularityClaimCount; ++row) {
    const int needed = row_sum(row);
    LOCPRIV_EXPECT(static_cast<std::size_t>(needed) <= pools[row]->size());
    for (int k = 0; k < needed; ++k) {
      background_apps.push_back((*pools[row])[pool_taken[row]++]);
      background_rows.push_back(row);
    }
  }
  LOCPRIV_ENSURE(static_cast<int>(background_apps.size()) == targets.background);

  // 5. Provider combos for background apps, exactly per Table I.
  {
    std::size_t cursor = 0;
    for (int row = 0; row < kGranularityClaimCount; ++row) {
      for (int combo = 0; combo < kProviderComboCount; ++combo) {
        const int count =
            targets.background_provider_matrix[static_cast<std::size_t>(row)]
                                              [static_cast<std::size_t>(combo)];
        for (int k = 0; k < count; ++k) {
          AppSpec& app = catalog[background_apps[cursor]];
          LOCPRIV_ENSURE(background_rows[cursor] == row);
          app.behavior.uses_location = true;
          app.behavior.continues_in_background = true;
          app.behavior.providers = provider_combo(combo);
          app.behavior.requested_granularity = row == 1 /* coarse-only */
                                                   ? Granularity::kCoarse
                                                   : Granularity::kFine;
          ++cursor;
        }
      }
    }
    LOCPRIV_ENSURE(cursor == background_apps.size());
  }

  // 6. Background request intervals per the Figure 1 bands; the slowest
  //    band contains exactly one app at the paper's 7,200 s maximum.
  {
    std::vector<std::size_t> order = background_apps;
    rng.shuffle(order);
    std::size_t cursor = 0;
    for (int band = 0; band < 4; ++band) {
      for (int k = 0; k < targets.interval_band_counts[static_cast<std::size_t>(band)];
           ++k) {
        AppSpec& app = catalog[order[cursor++]];
        const auto& values = kBandValues[band];
        app.behavior.request_interval_s =
            values[static_cast<std::size_t>(rng.next_below(values.size()))];
      }
    }
    // Force the single 7,200 s straggler (last assigned app of band 3).
    catalog[order[cursor - 1]].behavior.request_interval_s = 7200;
    LOCPRIV_ENSURE(cursor == order.size());
  }

  // 7. Background auto-start: 85 of the 102.
  {
    std::vector<std::size_t> order = background_apps;
    rng.shuffle(order);
    for (int k = 0; k < targets.background_auto_start; ++k)
      catalog[order[static_cast<std::size_t>(k)]].behavior.auto_start_on_launch = true;
  }

  // 8. Foreground-only functional apps: the remaining 426 of the 528,
  //    drawn from declaring apps not already background.
  {
    std::vector<std::size_t> candidates;
    for (const std::size_t app : declaring_indices) {
      if (std::find(background_apps.begin(), background_apps.end(), app) !=
          background_apps.end())
        continue;
      candidates.push_back(app);
    }
    rng.shuffle(candidates);
    const int foreground_functional = targets.functional - targets.background;
    const int foreground_auto =
        targets.functional_auto_start - targets.background_auto_start;
    LOCPRIV_EXPECT(static_cast<int>(candidates.size()) >= foreground_functional);
    for (int k = 0; k < foreground_functional; ++k) {
      AppSpec& app = catalog[candidates[static_cast<std::size_t>(k)]];
      app.behavior.uses_location = true;
      app.behavior.continues_in_background = false;
      app.behavior.auto_start_on_launch = k < foreground_auto;
      app.behavior.request_interval_s = rng.uniform_int(5, 60);
      const bool fine_capable = app.manifest.declared_granularity() != "Coarse";
      app.behavior.requested_granularity =
          fine_capable ? Granularity::kFine : Granularity::kCoarse;
      // Foreground apps favour one-shot-ish gps/network/fused usage.
      const double roll = rng.uniform01();
      if (!fine_capable) {
        app.behavior.providers = {LocationProvider::kNetwork};
      } else if (roll < 0.40) {
        app.behavior.providers = {LocationProvider::kGps};
      } else if (roll < 0.65) {
        app.behavior.providers = {LocationProvider::kNetwork};
      } else if (roll < 0.85) {
        app.behavior.providers = {LocationProvider::kFused, LocationProvider::kNetwork};
      } else {
        app.behavior.providers = {LocationProvider::kGps, LocationProvider::kNetwork};
      }
    }
  }

  // 9. Manifest services/receivers: every background app has a service;
  //    some others do too (services are common and not location-specific).
  for (AppSpec& app : catalog) {
    if (app.behavior.continues_in_background) app.manifest.declares_service = true;
    else app.manifest.declares_service = rng.bernoulli(0.35);
    app.manifest.declares_receiver = rng.bernoulli(0.25);
  }

  return catalog;
}

}  // namespace locpriv::market
