// E4 — Table III + Figure 2: PoIs extracted from the full-rate traces under
// the six (visiting time, radius) parameter combinations, plus the corpus
// statistics that stand in for the Geolife characteristics the paper cites.
#include <iostream>

#include "bench_common.hpp"
#include "poi/clustering.hpp"
#include "poi/staypoint.hpp"
#include "trace/trace_stats.hpp"

int main() {
  using namespace locpriv;
  bench::print_header("E4: Table III / Figure 2 - PoIs vs extraction parameters",
                      /*uses_mobility_corpus=*/true);

  const auto& dataset = core::shared_dataset();

  // Corpus sanity next to the paper's Geolife description.
  const trace::DatasetStats stats = trace::compute_dataset_stats(dataset.users);
  std::cout << "Synthetic Geolife-like corpus:\n";
  bench::print_comparison("users", "182",
                          std::to_string(stats.user_count));
  bench::print_comparison("fixes sampled every 1-5 s", "~91%",
                          util::format_percent(stats.high_frequency_fraction, 1));
  bench::print_comparison("trajectories", "17,621 (full Geolife)",
                          std::to_string(stats.trajectory_count));
  bench::print_comparison("total distance", "~1.2M km (full Geolife)",
                          util::format_fixed(stats.total_length_km, 0) + " km");

  // Figure 2: total stay points extracted per parameter set, and the PoIs
  // (clustered places) they induce.
  std::cout << "\nFigure 2 - extraction under Table III parameter sets:\n\n";
  util::ConsoleTable table({"set", "visit (min)", "radius (m)", "stay points",
                            "PoIs (clustered)", "vs set 1"});
  const auto sets = poi::table3_parameter_sets();
  std::size_t set1_stays = 0;
  for (std::size_t s = 0; s < sets.size(); ++s) {
    std::size_t stays_total = 0;
    std::size_t pois_total = 0;
    for (const auto& user : dataset.users) {
      const auto stays = poi::extract_stay_points(user.points(), sets[s]);
      stays_total += stays.size();
      pois_total += poi::cluster_stay_points(stays, sets[s].radius_m).size();
    }
    if (s == 0) set1_stays = stays_total;
    table.add_row({std::to_string(s + 1),
                   std::to_string(sets[s].min_visit_s / 60),
                   util::format_fixed(sets[s].radius_m, 0),
                   std::to_string(stays_total), std::to_string(pois_total),
                   util::format_percent(static_cast<double>(stays_total) /
                                            static_cast<double>(set1_stays),
                                        1)});
  }
  table.print(std::cout);

  std::cout <<
      "\nPaper shape checks: (i) under the same radius, fewer PoIs as the\n"
      "visiting time grows; (ii) under the same visiting time, more PoIs with\n"
      "the larger radius; (iii) the visiting time dominates the radius.\n";
  return bench::export_table("fig2_poi_params", table);
}
