// E5/E6 — Figure 3: how the access interval of a background app affects
// (a) the PoIs it can extract, and (b) the sensitive PoIs (reference visit
// count <= 1 / 2 / 3) it can trace out. Also reproduces the two §IV.C
// headline sentences: "only around 1.8% PoIs can be extracted" at 7,200 s
// and "about 45.1% of apps can acquire all PoIs".
#include <iostream>

#include "bench_common.hpp"
#include "core/analyzer.hpp"
#include "market/catalog.hpp"
#include "market/study.hpp"
#include "poi/clustering.hpp"
#include "privacy/metrics.hpp"

int main() {
  using namespace locpriv;
  bench::print_header("E5/E6: Figure 3 - PoI exposure vs access interval",
                      /*uses_mobility_corpus=*/true);

  const core::PrivacyAnalyzer analyzer = core::experiment_corpus().analyzer;
  const core::AnalyzerConfig& config = analyzer.config();

  // Reference totals at full rate.
  std::size_t reference_total = 0;
  std::size_t reference_sensitive[3] = {0, 0, 0};
  for (std::size_t u = 0; u < analyzer.user_count(); ++u) {
    const auto& pois = analyzer.reference(u).pois;
    reference_total += pois.size();
    for (std::size_t k = 0; k < 3; ++k)
      reference_sensitive[k] += poi::sensitive_pois(pois, k + 1).size();
  }
  std::cout << "reference PoIs at 1 s ground truth: " << reference_total
            << " (paper: 9,061 on full Geolife)\n\n";

  bench::SeriesCsv csv("fig3_poi_frequency");
  csv.row({"interval_s", "recovered", "fraction", "sens1", "sens2", "sens3",
           "complete_users"});
  util::ConsoleTable table({"interval (s)", "PoIs recovered", "% of reference",
                            "sens<=1", "sens<=2", "sens<=3", "users w/ all PoIs"});
  double recovered_at_7200 = 0.0;
  std::vector<std::pair<std::int64_t, double>> complete_fraction_by_interval;
  for (const std::int64_t interval : core::access_interval_ladder()) {
    std::size_t recovered = 0;
    std::size_t sensitive_recovered[3] = {0, 0, 0};
    int complete_users = 0;
    for (std::size_t u = 0; u < analyzer.user_count(); ++u) {
      const auto collected = analyzer.collected_pois(u, interval);
      const auto& reference = analyzer.reference(u).pois;
      const auto recovery =
          privacy::poi_recovery(reference, collected, config.extraction.radius_m);
      recovered += recovery.recovered_count;
      if (recovery.complete()) ++complete_users;
      for (std::size_t k = 0; k < 3; ++k)
        sensitive_recovered[k] +=
            privacy::sensitive_poi_recovery(reference, collected,
                                            config.extraction.radius_m, k + 1)
                .recovered_count;
    }
    const double fraction =
        static_cast<double>(recovered) / static_cast<double>(reference_total);
    if (interval == 7200) recovered_at_7200 = fraction;
    complete_fraction_by_interval.emplace_back(
        interval,
        static_cast<double>(complete_users) / static_cast<double>(analyzer.user_count()));
    table.add_row({std::to_string(interval), std::to_string(recovered),
                   util::format_percent(fraction, 1),
                   std::to_string(sensitive_recovered[0]),
                   std::to_string(sensitive_recovered[1]),
                   std::to_string(sensitive_recovered[2]),
                   std::to_string(complete_users) + "/" +
                       std::to_string(analyzer.user_count())});
    csv.row({std::to_string(interval), std::to_string(recovered),
             util::format_fixed(fraction, 4), std::to_string(sensitive_recovered[0]),
             std::to_string(sensitive_recovered[1]),
             std::to_string(sensitive_recovered[2]), std::to_string(complete_users)});
  }
  table.print(std::cout);

  std::cout << '\n';
  bench::print_comparison("PoIs still extractable at 7,200 s", "~1.8%",
                          util::format_percent(recovered_at_7200, 1));

  // "45.1% of apps can acquire all PoIs": weight the per-interval complete
  // fraction by the measured Figure 1 interval distribution of the 102
  // background apps.
  market::CatalogConfig catalog_config;
  catalog_config.seed = core::kCatalogSeed;
  const market::MarketReport market =
      market::run_market_study(market::generate_catalog(catalog_config), 7);
  double complete_app_mass = 0.0;
  for (const std::int64_t app_interval : market.background_intervals) {
    // Nearest ladder point at or above the app's interval (conservative).
    double fraction = 0.0;
    for (const auto& [interval, complete] : complete_fraction_by_interval) {
      fraction = complete;
      if (interval >= app_interval) break;
    }
    complete_app_mass += fraction;
  }
  bench::print_comparison(
      "apps able to acquire all PoIs (weighted by Fig.1 intervals)", "~45.1%",
      util::format_percent(complete_app_mass /
                               static_cast<double>(market.background_intervals.size()),
                           1));
  return csv.commit();
}
