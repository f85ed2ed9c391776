// E14 — downstream inference attacks on the collected traces: home/work
// identification (day/night structure), the Golle-Partridge home/work-pair
// anonymity set, and Hoh et al.'s time-to-confusion. These quantify the
// "more private personal information" the paper's introduction warns that
// background collection enables beyond raw PoIs.
#include <algorithm>
#include <map>
#include <iostream>

#include "bench_common.hpp"
#include "core/analyzer.hpp"
#include "privacy/inference.hpp"
#include "stats/descriptive.hpp"
#include "trace/sampling.hpp"

int main() {
  using namespace locpriv;
  bench::print_header("E14: home/work inference, pair anonymity, time to confusion",
                      /*uses_mobility_corpus=*/true);

  const auto& dataset = core::shared_dataset();  // first: the analyzer then leaves users intact
  const core::PrivacyAnalyzer& analyzer = core::shared_analyzer();
  const std::size_t users = analyzer.user_count();

  // Ground truth: home is the generator's labelled home; "work" is defined
  // behaviourally — the non-home place with the most weekday working-hours
  // dwell in the true visit log (a user whose habits route them to the gym
  // every weekday *is* best described by the gym).
  std::vector<privacy::RegionId> true_home(users);
  std::vector<privacy::RegionId> true_work(users);
  for (std::size_t u = 0; u < users; ++u) {
    const auto& profile = dataset.profiles[u];
    true_home[u] =
        analyzer.grid().region_of(dataset.poi_position(profile.home_poi()));
    std::map<int, double> workday_dwell;
    for (const auto& visit : dataset.ground_truths[u].visits) {
      if (visit.poi_id == profile.home_poi()) continue;
      workday_dwell[visit.poi_id] +=
          privacy::split_dwell(visit.enter_s, visit.exit_s).workday_s;
    }
    int best = profile.work_poi();
    double best_dwell = -1.0;
    for (const auto& [poi_id, dwell] : workday_dwell) {
      if (dwell > best_dwell) {
        best_dwell = dwell;
        best = poi_id;
      }
    }
    true_work[u] = analyzer.grid().region_of(dataset.poi_position(best));
  }

  // --- Home/work identification accuracy vs access interval -----------
  std::cout << "Home / work identification from collected locations:\n\n";
  util::ConsoleTable homework({"interval (s)", "home correct", "work correct",
                               "both correct", "unresolved"});
  std::vector<privacy::HomeWorkResult> full_rate_inferences(users);
  for (const std::int64_t interval : {1LL, 60LL, 600LL, 3600LL}) {
    int home_ok = 0;
    int work_ok = 0;
    int both_ok = 0;
    int unresolved = 0;
    for (std::size_t u = 0; u < users; ++u) {
      const auto pois = analyzer.collected_pois(u, interval);
      const privacy::HomeWorkResult inferred =
          privacy::infer_home_work(pois, analyzer.grid());
      if (interval == 1) full_rate_inferences[u] = inferred;
      if (!inferred.resolved()) {
        ++unresolved;
        continue;
      }
      const bool home_hit = inferred.home_region == true_home[u];
      const bool work_hit = inferred.work_region == true_work[u];
      home_ok += home_hit;
      work_ok += work_hit;
      both_ok += home_hit && work_hit;
    }
    homework.add_row({std::to_string(interval),
                      std::to_string(home_ok) + "/" + std::to_string(users),
                      std::to_string(work_ok) + "/" + std::to_string(users),
                      std::to_string(both_ok) + "/" + std::to_string(users),
                      std::to_string(unresolved)});
  }
  homework.print(std::cout);

  // --- Golle-Partridge pair anonymity ---------------------------------
  std::cout << "\nHome/work-pair anonymity sets (1 s collection, inferred pairs):\n\n";
  {
    std::vector<double> set_sizes;
    int resolved = 0;
    for (std::size_t u = 0; u < users; ++u) {
      if (!full_rate_inferences[u].resolved()) continue;
      ++resolved;
      set_sizes.push_back(static_cast<double>(
          privacy::pair_anonymity_set(full_rate_inferences, u)));
    }
    const auto summary = stats::summarize(set_sizes);
    util::ConsoleTable pairs({"resolved users", "singleton pairs", "mean set",
                              "max set"});
    const auto singletons = std::count(set_sizes.begin(), set_sizes.end(), 1.0);
    pairs.add_row({std::to_string(resolved),
                   std::to_string(singletons),
                   util::format_fixed(summary.mean, 2),
                   util::format_fixed(summary.max, 0)});
    pairs.print(std::cout);
    std::cout << "(Golle & Partridge: the home/work pair alone is close to a\n"
                 "unique identifier - most anonymity sets here are singletons.)\n";
  }

  // --- Time to confusion ----------------------------------------------
  std::cout << "\nTime to confusion (linkable-chain length, fixed 900 s\n"
               "linkability gap, speed <= 40 m/s):\n\n";
  util::ConsoleTable confusion({"interval (s)", "median episode", "max episode",
                                "episodes/user"});
  for (const std::int64_t interval : {1LL, 60LL, 600LL, 3600LL}) {
    std::vector<double> medians;
    std::vector<double> maxima;
    double episodes = 0.0;
    for (std::size_t u = 0; u < users; ++u) {
      const auto collected = trace::collect(analyzer.reference(u).points, interval);
      if (collected.empty()) continue;
      const auto stats_u = privacy::time_to_confusion(collected, 900, 40.0);
      medians.push_back(stats_u.median_s);
      maxima.push_back(stats_u.max_s);
      episodes += static_cast<double>(stats_u.episode_count);
    }
    confusion.add_row(
        {std::to_string(interval),
         util::format_fixed(stats::quantile(medians, 0.5) / 60.0, 1) + " min",
         util::format_fixed(stats::quantile(maxima, 0.5) / 3600.0, 1) + " h",
         util::format_fixed(episodes / static_cast<double>(users), 1)});
  }
  confusion.print(std::cout);
  const int homework_rc = bench::export_table("inference_homework", homework);
  const int confusion_rc = bench::export_table("inference_confusion", confusion);
  std::cout << "\nFast pollers maintain day-long tracking chains; slow pollers\n"
               "fragment into short episodes the adversary cannot stitch.\n";
  return homework_rc != 0 ? homework_rc : confusion_rc;
}
