// E15 — what the leaked habits are worth to the adversary:
//  (a) reconstruction error (Shokri-style correctness) — how far off is the
//      adversary's estimate of the user's position, as the app's access
//      interval grows;
//  (b) next-place prediction — train a Markov predictor on the first days
//      of collected movement, test on the remaining days' true movement.
#include <iostream>

#include "bench_common.hpp"
#include "core/analyzer.hpp"
#include "poi/clustering.hpp"
#include "privacy/prediction.hpp"
#include "privacy/reconstruction.hpp"
#include "stats/descriptive.hpp"
#include "trace/sampling.hpp"

int main() {
  using namespace locpriv;
  bench::print_header("E15: reconstruction error and next-place prediction",
                      /*uses_mobility_corpus=*/true);

  const core::PrivacyAnalyzer analyzer = core::experiment_corpus().analyzer;
  const std::size_t users = analyzer.user_count();

  // --- (a) reconstruction error vs interval ---------------------------
  std::cout << "Adversary position-estimate error (piecewise-constant estimate\n"
               "from collected fixes, sampled against the truth every 60 s):\n\n";
  util::ConsoleTable error_table(
      {"interval (s)", "median of user means (m)", "median p90 (m)"});
  for (const std::int64_t interval : {1LL, 60LL, 600LL, 3600LL, 7200LL}) {
    std::vector<double> means;
    std::vector<double> p90s;
    for (std::size_t u = 0; u < users; ++u) {
      const auto& truth = analyzer.reference(u).points;
      const auto collected = trace::collect(truth, interval);
      if (collected.empty()) continue;
      const privacy::PositionEstimator estimator(collected);
      const auto error = privacy::reconstruction_error(truth, estimator, 60);
      means.push_back(error.mean_m);
      p90s.push_back(error.p90_m);
    }
    error_table.add_row({std::to_string(interval),
                         util::format_fixed(stats::quantile(means, 0.5), 0),
                         util::format_fixed(stats::quantile(p90s, 0.5), 0)});
  }
  error_table.print(std::cout);

  // --- (b) next-place prediction --------------------------------------
  std::cout << "\nNext-place prediction: train on movement patterns observed in\n"
               "the first 60% of the collected trace, evaluate on the true\n"
               "visit sequence of the remaining 40%:\n\n";
  util::ConsoleTable prediction_table(
      {"interval (s)", "mean accuracy", "users with >=50% accuracy"});
  for (const std::int64_t interval : {1LL, 60LL, 600LL}) {
    std::vector<double> accuracies;
    int strong = 0;
    for (std::size_t u = 0; u < users; ++u) {
      const auto& truth = analyzer.reference(u).points;
      const auto head = trace::take_prefix_fraction(truth, 0.6);
      // Train from what the app collects over the head.
      const auto observed = privacy::observed_histogram(
          head, privacy::Pattern::kMovements, analyzer.config().extraction,
          analyzer.grid(), interval);
      if (observed.empty()) continue;
      const privacy::NextPlacePredictor predictor(observed);

      // Held-out truth: the tail's true region sequence (full-rate PoIs).
      std::vector<trace::TracePoint> tail(truth.begin() + static_cast<std::ptrdiff_t>(
                                              head.size()),
                                          truth.end());
      const auto tail_stays =
          poi::extract_stay_points(tail, analyzer.config().extraction);
      const auto tail_pois =
          poi::cluster_stay_points(tail_stays, analyzer.config().extraction.radius_m);
      const auto sequence = privacy::region_sequence(tail_pois, analyzer.grid());
      if (sequence.size() < 2) continue;
      const auto score = privacy::score_predictions(predictor, sequence);
      if (score.evaluated == 0) continue;
      accuracies.push_back(score.accuracy());
      if (score.accuracy() >= 0.5) ++strong;
    }
    prediction_table.add_row(
        {std::to_string(interval),
         util::format_percent(stats::mean(accuracies), 1),
         std::to_string(strong) + "/" + std::to_string(users)});
  }
  prediction_table.print(std::cout);
  std::cout <<
      "\nThe movement histogram is not just an identifier: at fast intervals\n"
      "the top-1 next-place guess lands ~2-3x above chance (users have ~8-10\n"
      "candidate places), and the adversary's position estimate is exact at\n"
      "sub-minute polling. Both collapse once the access interval passes the\n"
      "Figure 3 knee - the same knee that governs PoI recovery.\n";
  const int error_rc = bench::export_table("prediction_error", error_table);
  const int next_rc = bench::export_table("prediction_next_place", prediction_table);
  return error_rc != 0 ? error_rc : next_rc;
}
