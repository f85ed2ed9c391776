// E12 — LPPM defense comparison: every defense in the standard suite scored
// on privacy (PoI recovery, identification, anonymity) and utility
// (positional error, release volume) against a 1 s background app — the
// strongest attacker the market study observed.
#include <iostream>

#include "bench_common.hpp"
#include "core/defense_eval.hpp"
#include "mobility/synthesis.hpp"

int main() {
  using namespace locpriv;
  bench::print_header("E12: LPPM defenses vs the 1 s background app",
                      /*uses_mobility_corpus=*/true);

  const auto& dataset = core::shared_dataset();  // first: the analyzer then leaves users intact
  const core::PrivacyAnalyzer& analyzer = core::shared_analyzer();

  // Cloaking anchors: every user's true home (the population density the
  // k-anonymity cloak needs).
  std::vector<geo::LatLon> homes;
  homes.reserve(dataset.profiles.size());
  for (const auto& profile : dataset.profiles)
    homes.push_back(dataset.poi_position(profile.home_poi()));

  const auto suite = lppm::standard_suite(dataset.city_config.anchor, homes);

  util::ConsoleTable table({"defense", "PoI_total", "PoI_sens", "identified (p2)",
                            "mean Deg_anon", "mean err (m)", "released"});
  for (const auto& defense : suite) {
    const core::DefenseOutcome outcome =
        core::evaluate_defense(analyzer, *defense, /*interval_s=*/1,
                               /*seed=*/core::kDatasetSeed ^ 0xdefULL);
    table.add_row({outcome.defense,
                   util::format_percent(outcome.poi_total_fraction, 1),
                   util::format_percent(outcome.poi_sensitive_fraction, 1),
                   std::to_string(outcome.users_identified) + "/" +
                       std::to_string(analyzer.user_count()),
                   util::format_fixed(outcome.mean_anonymity, 3),
                   util::format_fixed(outcome.mean_position_error_m, 0),
                   util::format_percent(outcome.release_ratio, 0)});
  }
  table.print(std::cout);

  std::cout <<
      "\nReading the trade-off: snapping/cloaking buy privacy with positional\n"
      "error; throttling buys it with volume at perfect accuracy; suppressing\n"
      "every home hides the chains' anchor yet amenity-to-amenity patterns\n"
      "still identify a quarter of the users. The identification column shows\n"
      "which defenses actually break the paper's attack rather than merely\n"
      "blurring the map.\n";
  return bench::export_table("defenses", table);
}
