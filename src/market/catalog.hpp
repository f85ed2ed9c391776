// Calibrated catalog generation.
//
// The paper measures a fixed population (the top-100 apps of 28 Google Play
// categories in early 2016); we cannot download it, so we synthesise a
// population whose ground-truth marginals equal the paper's reported
// statistics, then *re-measure* them through the same static + dynamic
// pipeline the paper used. Calibration uses exact quotas (deterministically
// shuffled), so every reported headline number is reproduced by the
// pipeline rather than merely asserted.
#pragma once

#include <array>
#include <cstdint>

#include "market/app_spec.hpp"

namespace locpriv::market {

/// The provider combinations of Table I, in the paper's column order.
inline constexpr int kProviderComboCount = 8;

/// Providers of Table I column `combo` in [0, 8).
std::vector<android::LocationProvider> provider_combo(int combo);

/// Table I column label of `combo` ("gps", "gps network", "fused network"...).
std::string provider_combo_name(int combo);

/// Declared-granularity rows of Table I.
enum class GranularityClaim { kFineOnly, kCoarseOnly, kBoth };
inline constexpr int kGranularityClaimCount = 3;

/// Calibration targets; defaults are the paper's Section III numbers.
struct CalibrationTargets {
  int total_apps = 2800;          ///< 28 categories x top 100.
  int declaring = 1137;           ///< Declare >= 1 location permission.
  int fine_only = 193;            ///< 17 % of 1,137.
  int coarse_only = 182;          ///< 16 % of 1,137.
  int functional = 528;           ///< Actually access location when run.
  int functional_auto_start = 393;///< Request right after launch.
  int background = 102;           ///< Keep accessing in background.
  int background_auto_start = 85; ///< Background apps that also auto-start.

  /// Table I: per (granularity row, provider combo) counts for the 102
  /// background apps. Rows: fine, coarse, fine&coarse; columns as
  /// provider_combo(). Row sums must be 18 / 6 / 78.
  std::array<std::array<int, kProviderComboCount>, kGranularityClaimCount>
      background_provider_matrix = {{
          {7, 3, 4, 2, 0, 1, 1, 0},
          {0, 0, 6, 0, 0, 0, 0, 0},
          {32, 9, 7, 14, 5, 4, 6, 1},
      }};

  /// Figure 1 interval bands for the 102 background apps: counts whose
  /// request interval falls in (0,10], (10,60], (60,600], (600,7200]
  /// seconds. Chosen so the CDF passes through the paper's 57.8 % / 68.6 %
  /// / 83.8 % points; exactly one app sits at the 7,200 s maximum.
  std::array<int, 4> interval_band_counts = {59, 11, 15, 17};
};

/// Catalog generation parameters.
struct CatalogConfig {
  std::uint64_t seed = 20170301;
  CalibrationTargets targets;
};

/// Generates the market corpus. Throws ContractViolation if the targets are
/// internally inconsistent (e.g. Table I rows not summing to the background
/// count).
Catalog generate_catalog(const CatalogConfig& config);

}  // namespace locpriv::market
