#include "privacy/detection.hpp"

#include <algorithm>

#include "poi/clustering.hpp"
#include "poi/staypoint.hpp"
#include "trace/sampling.hpp"
#include "util/expect.hpp"

namespace locpriv::privacy {

std::vector<double> DetectionConfig::make_default_fractions() {
  std::vector<double> fractions;
  for (int percent = 2; percent <= 100; percent += 2)
    fractions.push_back(static_cast<double>(percent) / 100.0);
  return fractions;
}

PatternHistogram observed_histogram(const std::vector<trace::TracePoint>& points,
                                    Pattern pattern,
                                    const poi::ExtractionParams& extraction,
                                    const RegionGrid& grid, std::int64_t interval_s) {
  LOCPRIV_EXPECT(interval_s >= 1);
  const auto stays =
      poi::extract_stay_points(trace::collect(points, interval_s), extraction);
  const auto pois = poi::cluster_stay_points(stays, extraction.radius_m);
  return build_histogram(pattern, pois, grid);
}

namespace {

/// Walks growing prefixes of `points` in one pass. The fixes an app polling
/// at `interval_s` collects are picked on the fly by trace::collector (the
/// collection model anchored at the first fix keeps the same fixes of a
/// prefix as of the whole trace) and pushed into one stay-point stream. At
/// each probe the stream's stays are clustered and histogrammed, and the
/// first probe whose histogram `fires` is the outcome; later fixes are
/// never read.
template <typename Fires>
DetectionOutcome sweep_prefixes(const std::vector<trace::TracePoint>& points,
                                Pattern pattern, const DetectionConfig& config,
                                Fires&& fires) {
  LOCPRIV_EXPECT(config.interval_s >= 1);
  LOCPRIV_EXPECT(std::is_sorted(config.fractions.begin(), config.fractions.end()));
  poi::StayPointStream stream(config.extraction);
  trace::Decimator collector = trace::collector(
      config.interval_s, points.empty() ? 0 : points.front().timestamp_s);
  std::size_t pushed = 0;
  for (const double fraction : config.fractions) {
    const std::size_t keep = trace::prefix_length(points.size(), fraction);
    if (keep == 0) continue;
    for (; pushed < keep; ++pushed)
      if (collector.keep(points[pushed])) stream.push(points[pushed]);
    const auto pois =
        poi::cluster_stay_points(stream.peek_close(), config.extraction.radius_m);
    if (fires(build_histogram(pattern, pois, config.grid)))
      return {.detected = true, .fraction = fraction};
  }
  return {};
}

}  // namespace

DetectionOutcome earliest_detection(const std::vector<trace::TracePoint>& points,
                                    const PatternHistogram& profile, Pattern pattern,
                                    const DetectionConfig& config) {
  return sweep_prefixes(points, pattern, config, [&](const PatternHistogram& observed) {
    const MatchResult match = match_histograms(observed, profile, config.match);
    return match.attempted && match.matches;
  });
}

DetectionOutcome earliest_identification(const std::vector<trace::TracePoint>& points,
                                         const Adversary& adversary,
                                         std::size_t true_user, Pattern pattern,
                                         const DetectionConfig& config) {
  LOCPRIV_EXPECT(true_user < adversary.profile_count());
  return sweep_prefixes(points, pattern, config, [&](const PatternHistogram& observed) {
    if (observed.empty()) return false;
    return adversary.identify(observed, pattern, config.match).identifies(true_user);
  });
}

}  // namespace locpriv::privacy
