// E7/E8 — Figure 4: risk-detection speed under the two profile patterns.
//
//  (a) CDF over users of the fraction of the trace an adversary needs before
//      uniquely identifying them, collecting from the trace start at 1 s.
//  (b) Same, but collection begins at a random position in the trace.
//  (c) Number of users identified as the access interval grows.
//  (d) For users both patterns identify: which pattern is strictly faster.
//
// "Detection" follows the paper's quasi-identifier reading: the chi-square
// match set over all profiles collapses to exactly the true user (see
// DESIGN.md on why the self-match reading is not recoverable from the
// paper's formulas).
#include <iostream>

#include "bench_common.hpp"
#include "core/analyzer.hpp"
#include "mobility/synthesis.hpp"
#include "privacy/detection.hpp"
#include "privacy/topn.hpp"
#include "stats/rng.hpp"
#include "trace/sampling.hpp"

namespace {

using namespace locpriv;

// Earliest identification over an arbitrary point window, as a fraction of
// the user's full trace (so (a) and (b) share an x-axis).
privacy::DetectionOutcome identify_over(const std::vector<trace::TracePoint>& window,
                                        std::size_t full_size,
                                        const core::PrivacyAnalyzer& analyzer,
                                        std::size_t user, privacy::Pattern pattern,
                                        std::int64_t interval_s) {
  privacy::DetectionConfig config(analyzer.grid());
  config.extraction = analyzer.config().extraction;
  config.match = analyzer.config().match;
  config.interval_s = interval_s;
  privacy::DetectionOutcome outcome = privacy::earliest_identification(
      window, analyzer.adversary(), user, pattern, config);
  if (outcome.detected)
    outcome.fraction = outcome.fraction * static_cast<double>(window.size()) /
                       static_cast<double>(full_size);
  return outcome;
}

void print_cdf(const std::string& title, const std::vector<double>& p1_fractions,
               const std::vector<double>& p2_fractions, std::size_t user_count) {
  std::cout << title << "\n\n";
  util::ConsoleTable table({"collected <= (% of profile)", "pattern 1 (visits)",
                            "pattern 2 (movements)"});
  for (const double limit : {0.05, 0.10, 0.20, 0.30, 0.50, 0.75, 1.0}) {
    const auto count_below = [&](const std::vector<double>& fractions) {
      std::size_t count = 0;
      for (const double f : fractions)
        if (f <= limit + 1e-9) ++count;
      return util::format_percent(static_cast<double>(count) /
                                      static_cast<double>(user_count),
                                  1);
    };
    table.add_row({util::format_percent(limit, 0), count_below(p1_fractions),
                   count_below(p2_fractions)});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::print_header("E7/E8: Figure 4 - identification speed, pattern 1 vs 2",
                      /*uses_mobility_corpus=*/true);

  const core::PrivacyAnalyzer analyzer = core::experiment_corpus().analyzer;
  const std::size_t users = analyzer.user_count();

  // ---- (a) from the trace start at 1 s -------------------------------
  std::vector<double> p1_start;
  std::vector<double> p2_start;
  std::vector<bool> p1_detected(users, false);
  std::vector<bool> p2_detected(users, false);
  std::vector<double> p1_fraction(users, 2.0);
  std::vector<double> p2_fraction(users, 2.0);
  for (std::size_t u = 0; u < users; ++u) {
    const auto p1 = analyzer.earliest_identification(u, privacy::Pattern::kVisits, 1);
    const auto p2 =
        analyzer.earliest_identification(u, privacy::Pattern::kMovements, 1);
    if (p1.detected) {
      p1_start.push_back(p1.fraction);
      p1_detected[u] = true;
      p1_fraction[u] = p1.fraction;
    }
    if (p2.detected) {
      p2_start.push_back(p2.fraction);
      p2_detected[u] = true;
      p2_fraction[u] = p2.fraction;
    }
  }
  print_cdf("Figure 4(a) - collection starts at the beginning of the trace\n"
            "(paper anchor: <=10% of profile identifies ~52% of users with\n"
            "pattern 2 but only ~13% with pattern 1)",
            p1_start, p2_start, users);
  int artifact_rc = 0;
  {
    bench::SeriesCsv csv("fig4a_identification_fractions");
    csv.row({"user", "pattern1_fraction", "pattern2_fraction"});
    for (std::size_t u = 0; u < users; ++u)
      csv.row({std::to_string(u),
               p1_detected[u] ? util::format_fixed(p1_fraction[u], 3) : "",
               p2_detected[u] ? util::format_fixed(p2_fraction[u], 3) : ""});
    artifact_rc = csv.commit();
  }

  // ---- (b) from a random position at 1 s -----------------------------
  std::vector<double> p1_random;
  std::vector<double> p2_random;
  stats::Rng offsets(core::kDatasetSeed ^ 0x5eedULL);
  for (std::size_t u = 0; u < users; ++u) {
    const auto& points = analyzer.reference(u).points;
    const auto window = trace::from_random_offset(points, offsets);
    const auto p1 = identify_over(window, points.size(), analyzer, u,
                                  privacy::Pattern::kVisits, 1);
    const auto p2 = identify_over(window, points.size(), analyzer, u,
                                  privacy::Pattern::kMovements, 1);
    if (p1.detected) p1_random.push_back(p1.fraction);
    if (p2.detected) p2_random.push_back(p2.fraction);
  }
  std::cout << '\n';
  print_cdf("Figure 4(b) - collection starts at a random trace position",
            p1_random, p2_random, users);

  // ---- (c) users identified vs access interval -----------------------
  std::cout << "\nFigure 4(c) - users identified vs access interval\n"
               "(paper: both patterns detect ~107 users at 1 s, dropping with\n"
               "the interval)\n\n";
  util::ConsoleTable detected_table(
      {"interval (s)", "pattern 1 identified", "pattern 2 identified"});
  // ---- (d) which pattern is strictly faster --------------------------
  util::ConsoleTable faster_table(
      {"interval (s)", "pattern 2 faster", "pattern 1 faster", "tie"});
  for (const std::int64_t interval : {1LL, 10LL, 60LL, 600LL, 3600LL}) {
    int p1_count = 0;
    int p2_count = 0;
    int p2_faster = 0;
    int p1_faster = 0;
    int tie = 0;
    for (std::size_t u = 0; u < users; ++u) {
      privacy::DetectionOutcome p1;
      privacy::DetectionOutcome p2;
      if (interval == 1) {
        // Reuse the sweep from (a).
        p1.detected = p1_detected[u];
        p1.fraction = p1_fraction[u];
        p2.detected = p2_detected[u];
        p2.fraction = p2_fraction[u];
      } else {
        p1 = analyzer.earliest_identification(u, privacy::Pattern::kVisits, interval);
        p2 = analyzer.earliest_identification(u, privacy::Pattern::kMovements,
                                              interval);
      }
      if (p1.detected) ++p1_count;
      if (p2.detected) ++p2_count;
      if (p1.detected && p2.detected) {
        if (p2.fraction < p1.fraction) ++p2_faster;
        else if (p1.fraction < p2.fraction) ++p1_faster;
        else ++tie;
      }
    }
    detected_table.add_row({std::to_string(interval), std::to_string(p1_count),
                            std::to_string(p2_count)});
    faster_table.add_row({std::to_string(interval), std::to_string(p2_faster),
                          std::to_string(p1_faster), std::to_string(tie)});
  }
  detected_table.print(std::cout);
  std::cout << "\nFigure 4(d) - faster pattern per user (paper at 1 s: pattern 2\n"
               "faster for 71 users, pattern 1 for 14)\n\n";
  faster_table.print(std::cout);

  // ---- prior-work baseline: Zang & Bolot top-N locations -------------
  std::cout << "\nPrior-work baseline (Zang & Bolot, the paper's [35]), on a\n"
               "co-located corpus (6 users per home building, so the top-1\n"
               "region alone cannot separate co-residents):\n\n";
  {
    mobility::DatasetConfig co_located;
    co_located.user_count = 48;
    co_located.synthesis.days = 8;
    co_located.users_per_home = 6;
    const core::PrivacyAnalyzer shared = core::PrivacyAnalyzer::from_synthetic(
        core::experiment_analyzer_config(), co_located);
    std::vector<privacy::UserProfileHistograms> profiles;
    profiles.reserve(shared.user_count());
    for (std::size_t u = 0; u < shared.user_count(); ++u) {
      privacy::UserProfileHistograms profile;
      profile.user_id = shared.reference(u).user_id;
      profile.visits = shared.reference(u).visits;
      profile.movements = shared.reference(u).movements;
      profiles.push_back(std::move(profile));
    }
    util::ConsoleTable baseline({"identifier", "uniquely identified", "mean Deg_anon"});
    for (const std::size_t n : {1u, 2u, 3u}) {
      const privacy::TopNIdentifier identifier(profiles, n);
      int identified = 0;
      double anonymity = 0.0;
      for (std::size_t u = 0; u < shared.user_count(); ++u) {
        const auto& observed = shared.reference(u).visits;
        privacy::IdentificationResult result;
        result.matched = identifier.matches(observed);
        if (result.identifies(u)) ++identified;
        anonymity += identifier.degree_of_anonymity(observed);
      }
      baseline.add_row(
          {"top-" + std::to_string(n) + " regions",
           std::to_string(identified) + "/" + std::to_string(shared.user_count()),
           util::format_fixed(anonymity / static_cast<double>(shared.user_count()),
                              3)});
    }
    baseline.print(std::cout);
    std::cout << "(Zang & Bolot's finding - anonymity collapses between top-1 and\n"
                 "top-2/3 - reproduces; the paper's movement pattern additionally\n"
                 "wins on *partial* traces, per the tables above.)\n";
  }
  return artifact_rc;
}
