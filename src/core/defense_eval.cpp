#include "core/defense_eval.hpp"

#include "geo/geodesy.hpp"
#include "trace/sampling.hpp"
#include "util/expect.hpp"

namespace locpriv::core {

DefenseOutcome evaluate_defense(const PrivacyAnalyzer& analyzer,
                                const lppm::Defense& defense,
                                std::int64_t interval_s, std::uint64_t seed) {
  LOCPRIV_EXPECT(interval_s >= 1);
  DefenseOutcome outcome;
  outcome.defense = defense.name();
  outcome.interval_s = interval_s;

  std::size_t reference_total = 0;
  std::size_t recovered_total = 0;
  std::size_t sensitive_reference = 0;
  std::size_t sensitive_recovered = 0;
  std::size_t requested_fixes = 0;
  std::size_t released_fixes = 0;
  double error_sum = 0.0;
  std::size_t error_count = 0;

  stats::Rng rng(seed);
  for (std::size_t u = 0; u < analyzer.user_count(); ++u) {
    const auto requested = trace::collect(analyzer.reference(u).points, interval_s);
    stats::Rng user_rng = rng.fork();
    const auto released = defense.release(requested, user_rng);
    requested_fixes += requested.size();
    released_fixes += released.size();

    // Utility: positional error of released fixes vs the true fix at the
    // same timestamp. Defenses never reorder time, so walk both streams.
    {
      std::size_t true_index = 0;
      for (const auto& fix : released) {
        while (true_index < requested.size() &&
               requested[true_index].timestamp_s < fix.timestamp_s)
          ++true_index;
        if (true_index < requested.size() &&
            requested[true_index].timestamp_s == fix.timestamp_s) {
          error_sum += geo::haversine_m(requested[true_index].position, fix.position);
          ++error_count;
        }
      }
    }

    // Privacy: rerun the attack on the released stream.
    const ExposureReport report = analyzer.evaluate_collected(u, interval_s, released);
    reference_total += report.poi_total.reference_count;
    recovered_total += report.poi_total.recovered_count;
    sensitive_reference += report.poi_sensitive.reference_count;
    sensitive_recovered += report.poi_sensitive.recovered_count;
    outcome.mean_anonymity += report.anonymity_movements;
    if (report.identified_movements) ++outcome.users_identified;
  }

  const auto users = static_cast<double>(analyzer.user_count());
  outcome.mean_anonymity /= users;
  outcome.poi_total_fraction =
      reference_total == 0
          ? 1.0
          : static_cast<double>(recovered_total) / static_cast<double>(reference_total);
  outcome.poi_sensitive_fraction =
      sensitive_reference == 0 ? 1.0
                               : static_cast<double>(sensitive_recovered) /
                                     static_cast<double>(sensitive_reference);
  outcome.mean_position_error_m =
      error_count == 0 ? 0.0 : error_sum / static_cast<double>(error_count);
  outcome.release_ratio =
      requested_fixes == 0
          ? 0.0
          : static_cast<double>(released_fixes) / static_cast<double>(requested_fixes);
  return outcome;
}

}  // namespace locpriv::core
