// E11 — ablations over the design choices DESIGN.md calls out:
//
//  1. stay-point buffer window size (4 / 8 / 16 fixes) and the anchor-based
//     baseline extractor;
//  2. chi-square tail (upper = default vs the paper-literal lower tail);
//  3. unseen-key smoothing (0 = paper Formula 1 vs 0.5 Laplace);
//  4. the matcher's test (chi-square vs Kolmogorov-Smirnov);
//  5. the location-coarsening defense (grid snapping a la LP-Guardian /
//     truncation) vs what a 1 s background app still learns;
//  6. co-located populations (users per home building).
#include <array>
#include <iostream>

#include "bench_common.hpp"
#include "trace/sampling.hpp"
#include "core/analyzer.hpp"
#include "geo/projection.hpp"

namespace {

using namespace locpriv;

// Users identified (uniquely, at full trace, 1 s) under a given match config.
// A 1 s app that sees the full trace observes the user's own profile.
int identified_users(const core::PrivacyAnalyzer& analyzer,
                     const privacy::MatchParams& match, privacy::Pattern pattern) {
  const privacy::Adversary& adversary = analyzer.adversary();
  int identified = 0;
  for (std::size_t u = 0; u < analyzer.user_count(); ++u) {
    const auto& observed = adversary.profile(u).histogram(pattern);
    if (observed.empty()) continue;
    if (adversary.identify(observed, pattern, match).identifies(u)) ++identified;
  }
  return identified;
}

}  // namespace

int main() {
  bench::print_header("E11: ablations over the pipeline's design choices",
                      /*uses_mobility_corpus=*/true);

  const core::PrivacyAnalyzer analyzer = core::experiment_corpus().analyzer;
  int artifact_rc = 0;  // First failed CSV export wins the exit code.
  const auto export_rc = [&artifact_rc](const std::string& name,
                                        const locpriv::util::ConsoleTable& table) {
    const int rc = bench::export_table(name, table);
    if (artifact_rc == 0) artifact_rc = rc;
  };

  // ---- 1. extraction window / algorithm ------------------------------
  std::cout << "1) stay-point extraction: buffer window and algorithm\n\n";
  {
    util::ConsoleTable table({"extractor", "stays @1s", "stays @60s", "stays @600s"});
    const auto count_stays = [&](auto&& extract) {
      std::array<std::size_t, 3> totals{0, 0, 0};
      const std::int64_t intervals[3] = {1, 60, 600};
      for (std::size_t u = 0; u < analyzer.user_count(); ++u) {
        for (int i = 0; i < 3; ++i)
          totals[static_cast<std::size_t>(i)] +=
              extract(trace::collect(analyzer.reference(u).points, intervals[i])).size();
      }
      return totals;
    };
    for (const std::size_t window : {4u, 8u, 16u}) {
      poi::ExtractionParams params = analyzer.config().extraction;
      params.window_fixes = window;
      const auto totals = count_stays([&](const auto& pts) {
        return poi::extract_stay_points(pts, params);
      });
      table.add_row({"buffered, window=" + std::to_string(window),
                     std::to_string(totals[0]), std::to_string(totals[1]),
                     std::to_string(totals[2])});
    }
    {
      const poi::ExtractionParams params = analyzer.config().extraction;
      const auto totals = count_stays([&](const auto& pts) {
        return poi::extract_stay_points_anchor(pts, params);
      });
      table.add_row({"anchor baseline (Zheng)", std::to_string(totals[0]),
                     std::to_string(totals[1]), std::to_string(totals[2])});
    }
    table.print(std::cout);
    export_rc("ablation_extractors", table);
    std::cout << "small windows keep stays detectable from decimated traces;\n"
                 "the anchor baseline is noise-sensitive at full rate.\n\n";
  }

  // ---- 2-4. matcher variants -----------------------------------------
  std::cout << "2-4) matcher variants: users uniquely identified at 1 s\n\n";
  {
    util::ConsoleTable table({"variant", "pattern 1", "pattern 2"});
    privacy::MatchParams base = analyzer.config().match;
    const auto row = [&](const std::string& name, const privacy::MatchParams& match) {
      table.add_row({name,
                     std::to_string(identified_users(analyzer, match,
                                                     privacy::Pattern::kVisits)),
                     std::to_string(identified_users(analyzer, match,
                                                     privacy::Pattern::kMovements))});
    };
    row("default (upper tail, no smoothing)", base);
    privacy::MatchParams lower = base;
    lower.tail = stats::ChiSquareTail::kLower;
    row("paper-literal lower tail", lower);
    privacy::MatchParams smoothed = base;
    smoothed.unseen_key_pseudo_count = 0.5;
    row("Laplace smoothing 0.5 on unseen keys", smoothed);
    privacy::MatchParams ks = base;
    ks.test = privacy::MatchTest::kKolmogorovSmirnov;
    row("Kolmogorov-Smirnov matcher", ks);
    table.print(std::cout);
    export_rc("ablation_matchers", table);
    std::cout << "the lower-tail reading accepts nearly any non-trivial fit, so\n"
                 "everything cross-matches and unique identification collapses;\n"
                 "smoothing penalises unknown places and sharpens both patterns;\n"
                 "the conservative KS matcher cross-matches the few-category\n"
                 "visit histograms yet barely hurts pattern 2 - the movement\n"
                 "pattern's advantage is robust to the choice of test.\n\n";
  }

  // ---- 5. coarsening defense -----------------------------------------
  std::cout << "5) location-coarsening defense vs a 1 s background app\n\n";
  {
    util::ConsoleTable table(
        {"snap grid (m)", "PoIs recovered", "% of reference", "users identified (p2)"});
    const geo::LocalProjection projection(analyzer.grid().projection().origin());
    for (const double cell : {0.0, 100.0, 250.0, 500.0, 1000.0}) {
      std::size_t reference_total = 0;
      std::size_t recovered = 0;
      int identified = 0;
      for (std::size_t u = 0; u < analyzer.user_count(); ++u) {
        std::vector<trace::TracePoint> released = analyzer.reference(u).points;
        if (cell > 0.0) {
          for (auto& point : released)
            point.position = geo::snap_to_grid(point.position, cell, projection);
        }
        const core::ExposureReport report = analyzer.evaluate_collected(u, 1, released);
        reference_total += report.poi_total.reference_count;
        recovered += report.poi_total.recovered_count;
        if (report.identified_movements) ++identified;
      }
      table.add_row({cell == 0.0 ? "off" : util::format_fixed(cell, 0),
                     std::to_string(recovered),
                     util::format_percent(static_cast<double>(recovered) /
                                              static_cast<double>(reference_total),
                                          1),
                     std::to_string(identified)});
    }
    table.print(std::cout);
    export_rc("ablation_coarsening", table);
    std::cout
        << "snapping at 100 m is transparent to the attack. At 250 m the exact\n"
           "PoI positions are lost (recovery collapses) yet the movement-pattern\n"
           "histogram still identifies most users - the *pattern* survives\n"
           "coarsening long after the places blur. Only cells much larger than\n"
           "the region key space defeat identification (cf. LP-Guardian).\n";
  }

  // ---- 6. co-located homes -------------------------------------------
  std::cout << "\n6) co-located populations (users per home building)\n\n";
  {
    util::ConsoleTable table({"users/home", "identified p1", "identified p2",
                              "mean Deg_anon p1", "mean Deg_anon p2"});
    for (const int sharing : {1, 4, 8}) {
      mobility::DatasetConfig config;
      config.user_count = 48;
      config.synthesis.days = 8;
      config.users_per_home = sharing;
      const core::PrivacyAnalyzer shared_homes =
          core::PrivacyAnalyzer::from_synthetic(core::experiment_analyzer_config(),
                                                config);
      int identified[2] = {0, 0};
      double anonymity[2] = {0.0, 0.0};
      const privacy::Pattern patterns[2] = {privacy::Pattern::kVisits,
                                            privacy::Pattern::kMovements};
      const privacy::Adversary& adversary = shared_homes.adversary();
      for (std::size_t u = 0; u < shared_homes.user_count(); ++u) {
        for (int p = 0; p < 2; ++p) {
          const auto& observed = adversary.profile(u).histogram(patterns[p]);
          if (observed.empty()) continue;
          const auto result =
              adversary.identify(observed, patterns[p], shared_homes.config().match);
          anonymity[p] += result.degree_of_anonymity;
          if (result.identifies(u)) ++identified[p];
        }
      }
      const auto n = static_cast<double>(shared_homes.user_count());
      table.add_row({std::to_string(sharing),
                     std::to_string(identified[0]) + "/48",
                     std::to_string(identified[1]) + "/48",
                     util::format_fixed(anonymity[0] / n, 3),
                     util::format_fixed(anonymity[1] / n, 3)});
    }
    table.print(std::cout);
    export_rc("ablation_colocated_homes", table);
    std::cout << "co-locating homes (dorm-style populations, as in much of the\n"
                 "real Geolife cohort) narrows pattern 2's margin but defeats\n"
                 "neither pattern: even co-residents keep distinctive amenity\n"
                 "mixes and movement chains. Hiding in a shared building is not\n"
                 "a defense against either histogram.\n";
  }
  return artifact_rc;
}
