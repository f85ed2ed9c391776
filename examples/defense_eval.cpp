// Defense evaluation: how much does releasing *coarsened* locations (the
// LP-Guardian / location-truncation countermeasure the paper cites) blunt a
// fast background app? Sweeps the snapping grid and reports PoI exposure
// and identification across all users.
//
//   $ ./examples/defense_eval [cell_m ...]    (default sweep 0..2000 m)
#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "core/analyzer.hpp"
#include "core/defense_eval.hpp"
#include "core/experiment.hpp"
#include "lppm/defense.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace locpriv;

  std::vector<double> cells{0.0, 100.0, 250.0, 500.0, 1000.0, 2000.0};
  if (argc > 1) {
    cells.clear();
    for (int i = 1; i < argc; ++i) cells.push_back(std::atof(argv[i]));
  }

  mobility::DatasetConfig dataset;
  dataset.user_count = 24;
  dataset.synthesis.days = 8;
  const core::PrivacyAnalyzer analyzer =
      core::PrivacyAnalyzer::from_synthetic(core::experiment_analyzer_config(), dataset);

  std::cout << "Coarsening defense vs a 1 s background app, "
            << analyzer.user_count() << " users:\n\n";
  util::ConsoleTable table({"cell (m)", "PoI_total", "PoI_sensitive(<=3)",
                            "users identified (p2)", "mean Deg_anonymity"});
  for (const double cell : cells) {
    std::unique_ptr<lppm::Defense> defense = std::make_unique<lppm::IdentityDefense>();
    if (cell > 0.0)
      defense = std::make_unique<lppm::GridSnapDefense>(
          cell, analyzer.grid().projection().origin());
    const core::DefenseOutcome outcome =
        core::evaluate_defense(analyzer, *defense, 1, /*seed=*/0);
    table.add_row(
        {cell == 0.0 ? "off" : util::format_fixed(cell, 0),
         util::format_percent(outcome.poi_total_fraction, 1),
         util::format_percent(outcome.poi_sensitive_fraction, 1),
         std::to_string(outcome.users_identified) + "/" +
             std::to_string(analyzer.user_count()),
         util::format_fixed(outcome.mean_anonymity, 3)});
  }
  table.print(std::cout);
  return 0;
}
