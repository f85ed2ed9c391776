// detect_sweep: the Figure 4 identification sweep at paper scale, in
// passes over the users. For every user and both patterns: an
// earliest_identification sweep from the start of the trace at 1, 10 and
// 60 s, plus privacy::earliest_identification over a seeded
// trace::from_random_offset window at 1 s. Pass 0 sweeps each trace from its
// first fix (PrivacyAnalyzer::earliest_identification, the paper's sweep);
// every later pass sweeps it from a seeded fix of the first day, distinct
// per pass, so no two passes repeat a sweep. Each of a sweep's 50 prefix
// probes re-extracts its prefix from scratch, so stay-point extraction
// dominates; a streaming pipeline would remove the re-scans.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "privacy/detection.hpp"
#include "stats/rng.hpp"
#include "trace/sampling.hpp"

namespace perfbench {

namespace {

using locpriv::core::PrivacyAnalyzer;
using locpriv::privacy::DetectionConfig;
using locpriv::privacy::DetectionOutcome;
using locpriv::privacy::Pattern;
using locpriv::trace::TracePoint;

/// From-start access intervals (Figure 4(a) and (c)); the random-offset
/// window (Figure 4(b)) runs at 1 s after them.
constexpr std::int64_t kStartIntervals[] = {1, 10, 60};
constexpr Pattern kPatterns[] = {Pattern::kVisits, Pattern::kMovements};
/// Users swept per requested second: --seconds 20 is two full 182-user
/// passes, 15-23 s on the reference host (4-vCPU KVM, Release build).
constexpr double kUsersPerSecond = 18.2;
/// Users whose window outcomes an untraced run re-derives as a spot check.
constexpr std::size_t kSampleUsers = 8;

DetectionConfig detection_config(const PrivacyAnalyzer& analyzer,
                                 std::int64_t interval_s) {
  DetectionConfig config(analyzer.grid());
  config.extraction = analyzer.config().extraction;
  config.match = analyzer.config().match;
  config.interval_s = interval_s;
  return config;
}

/// privacy::earliest_identification rebuilt from each layer's public
/// function, so a traced run can span every call inside the prefix sweep.
/// Must stay result-identical to the library's loop: the traced run checks
/// it against the untraced outcomes.
DetectionOutcome traced_identification(const std::vector<TracePoint>& points,
                                       const PrivacyAnalyzer& analyzer,
                                       std::size_t user, Pattern pattern,
                                       const DetectionConfig& config,
                                       Tracer& tracer) {
  using namespace locpriv;
  const privacy::Adversary& adversary = analyzer.adversary();
  DetectionOutcome outcome;
  double swept = 0.0;
  for (const double fraction : config.fractions) {
    tracer.count("detect.probes", 1);
    std::vector<TracePoint> prefix;
    {
      Scope span(tracer, "trace.prefix");
      prefix = trace::take_prefix_fraction(points, fraction);
    }
    tracer.count("trace.prefix.fixes", static_cast<double>(prefix.size()));
    if (prefix.empty()) continue;
    std::vector<TracePoint> collected;
    if (config.interval_s <= 1) {
      collected = prefix;
    } else {
      Scope span(tracer, "trace.decimate");
      collected = trace::decimate(prefix, config.interval_s);
      tracer.count("trace.decimate.fixes", static_cast<double>(prefix.size()));
    }
    swept = static_cast<double>(collected.size());
    std::vector<poi::StayPoint> stays;
    {
      Scope span(tracer, "poi.extract");
      stays = poi::extract_stay_points(collected, config.extraction);
    }
    tracer.count("poi.extract.calls", 1);
    tracer.count("poi.extract.fixes", static_cast<double>(collected.size()));
    std::vector<poi::Poi> pois;
    {
      Scope span(tracer, "poi.cluster");
      pois = poi::cluster_stay_points(stays, config.extraction.radius_m);
    }
    tracer.count("poi.cluster.stays", static_cast<double>(stays.size()));
    privacy::PatternHistogram observed;
    {
      Scope span(tracer, "privacy.histogram");
      observed = privacy::build_histogram(pattern, pois, config.grid);
    }
    if (observed.empty()) continue;
    privacy::IdentificationResult result;
    {
      Scope span(tracer, "privacy.identify");
      result = adversary.identify(observed, pattern, config.match);
    }
    tracer.count("privacy.identify.calls", 1);
    tracer.count("privacy.identify.tests",
                 static_cast<double>(adversary.profile_count()));
    if (result.matched.size() == 1 && result.matched.front() == user) {
      outcome.detected = true;
      outcome.fraction = fraction;
      break;
    }
  }
  tracer.count("detect.swept_fixes", swept);
  return outcome;
}

struct Call {
  std::size_t user = 0;
  Pattern pattern = Pattern::kVisits;
  int condition = 0;  ///< 0..2: kStartIntervals; 3: random window.
  DetectionOutcome outcome;
};

void digest_call(Digest& digest, const Call& call) {
  digest.add_u64(call.user);
  digest.add_u64(static_cast<std::uint64_t>(call.pattern));
  digest.add_u64(static_cast<std::uint64_t>(call.condition));
  digest.add_u64(call.outcome.detected ? 1 : 0);
  digest.add_f64(call.outcome.fraction);
}

struct Sweep {
  std::vector<Call> calls;
  std::vector<std::size_t> window_sizes;  ///< Per unit (user visit).
  double wall_s = 0.0;
  double call_s = 0.0;
  double fixes = 0.0;
};

/// The fix each unit's from-start sweeps begin at: 0 in pass 0, a distinct
/// late start in every later pass.
std::vector<std::size_t> unit_starts(const PrivacyAnalyzer& analyzer,
                                     std::size_t units, std::uint64_t seed) {
  const std::size_t users = analyzer.user_count();
  const std::size_t passes = (units + users - 1) / users;
  locpriv::stats::Rng rng(seed ^ 0x1a7eULL);
  std::vector<std::size_t> starts(units, 0);
  for (std::size_t user = 0; user < users; ++user) {
    const std::vector<std::size_t> late =
        late_starts(analyzer.reference(user).points, passes - 1, rng);
    for (std::size_t pass = 1; pass < passes; ++pass)
      if (pass * users + user < units) starts[pass * users + user] = late[pass - 1];
  }
  return starts;
}

/// The measured phase. Untraced, it calls the library's sweeps directly;
/// traced, it runs the decomposed sweep under spans.
Sweep run_sweep(const PrivacyAnalyzer& analyzer, std::size_t units,
                const std::vector<std::size_t>& starts, std::uint64_t seed,
                Tracer& tracer) {
  using namespace locpriv;
  Sweep sweep;
  sweep.calls.reserve(units * 8);
  stats::Rng offsets(seed);
  // Fixes each user's 1-s sweeps start at; a window that would repeat one
  // is redrawn.
  std::vector<std::vector<std::size_t>> swept(analyzer.user_count());
  for (std::size_t unit = 0; unit < units; ++unit)
    swept[unit % analyzer.user_count()].push_back(starts[unit]);
  const DetectionConfig window_config = detection_config(analyzer, 1);
  std::vector<DetectionConfig> start_configs;
  for (const std::int64_t interval : kStartIntervals)
    start_configs.push_back(detection_config(analyzer, interval));
  const auto start = Clock::now();
  for (std::size_t unit = 0; unit < units; ++unit) {
    const std::size_t user = unit % analyzer.user_count();
    const auto& points = analyzer.reference(user).points;
    std::vector<TracePoint> late;
    if (starts[unit] != 0)
      late.assign(points.begin() + static_cast<std::ptrdiff_t>(starts[unit]),
                  points.end());
    const std::vector<TracePoint>& trace = starts[unit] == 0 ? points : late;
    std::vector<TracePoint> window;
    do {
      Scope span(tracer, "trace.prefix");
      window = trace::from_random_offset(points, offsets);
      tracer.count("trace.prefix.fixes", static_cast<double>(window.size()));
    } while (std::find(swept[user].begin(), swept[user].end(),
                       points.size() - window.size()) != swept[user].end());
    swept[user].push_back(points.size() - window.size());
    sweep.window_sizes.push_back(window.size());
    for (const Pattern pattern : kPatterns) {
      for (int condition = 0; condition < 4; ++condition) {
        const bool windowed = condition == 3;
        const std::vector<TracePoint>& input = windowed ? window : trace;
        const DetectionConfig& config =
            windowed ? window_config : start_configs[condition];
        Call call{user, pattern, condition, {}};
        const auto call_start = Clock::now();
        if (tracer.on()) {
          Scope span(tracer, "detect.sweep");
          call.outcome =
              traced_identification(input, analyzer, user, pattern, config, tracer);
        } else if (windowed || starts[unit] != 0) {
          call.outcome = privacy::earliest_identification(
              input, analyzer.adversary(), user, pattern, config);
        } else {
          call.outcome = analyzer.earliest_identification(
              user, pattern, kStartIntervals[condition]);
        }
        sweep.call_s += seconds_since(call_start);
        sweep.fixes += static_cast<double>(input.size());
        sweep.calls.push_back(call);
      }
    }
  }
  sweep.wall_s = seconds_since(start);
  return sweep;
}

}  // namespace

void run_detect_sweep(const Options& options, Result& result) {
  using namespace locpriv;
  Tracer setup_tracer(options.trace);
  std::unique_ptr<PrivacyAnalyzer> owned;
  const int repeats = 3;
  const double setup_s = median_setup(repeats, [&] {
    owned.reset();  // One corpus alive at a time, as for a real user.
    owned = build_analyzer(options, 12, setup_tracer);
  });
  const PrivacyAnalyzer& analyzer = *owned;
  const std::size_t units =
      options.toy ? 2 * analyzer.user_count()
                  : static_cast<std::size_t>(
                        std::llround(options.seconds * kUsersPerSecond));

  const std::vector<std::size_t> starts = unit_starts(analyzer, units, options.seed);

  Tracer off(false);
  const Sweep sweep = run_sweep(analyzer, units, starts, options.seed, off);
  result.attempted = sweep.calls.size();
  result.set_e2e("setup_s", setup_s, "s");
  result.set_e2e("wall_s", sweep.wall_s, "s");
  result.set_e2e("fixes_per_s", sweep.fixes / sweep.call_s, "1/s");
  result.set_e2e("report_ms",
                 sweep.call_s * 1e3 / static_cast<double>(sweep.calls.size()),
                 "ms");

  Gates gates(options, result);
  Digest all;
  Digest from_start;
  for (std::size_t i = 0; i < sweep.calls.size(); ++i) {
    digest_call(all, sweep.calls[i]);
    if (i < analyzer.user_count() * 8 && sweep.calls[i].condition < 3)
      digest_call(from_start, sweep.calls[i]);
  }
  // Pass 0's from-start outcomes do not depend on the workload seed, so
  // they are pinned for every seed; the full digest only for the pinned
  // seeds.
  gates.expect_pinned("detect.start_digest", "start_digest", false,
                      from_start.hex());
  gates.expect_pinned("detect.digest", "digest", true, all.hex());

  // Spot check of the seeded windows: re-derive a few users' window
  // outcomes through the decomposed sweep.
  {
    std::size_t checked = 0;
    std::size_t differing = 0;
    const DetectionConfig config = detection_config(analyzer, 1);
    stats::Rng pick(options.seed ^ 0x5eedULL);
    for (std::size_t n = 0; n < std::min(kSampleUsers, units); ++n) {
      const std::size_t unit = pick.next_below(units);
      const std::size_t user = unit % analyzer.user_count();
      const auto& points = analyzer.reference(user).points;
      const std::vector<TracePoint> window(
          points.end() - static_cast<std::ptrdiff_t>(sweep.window_sizes[unit]),
          points.end());
      // Calls run visits then movements, conditions 0..3 each: a unit's
      // window calls sit at offsets 3 and 7.
      for (const std::size_t index : {unit * 8 + 3, unit * 8 + 7}) {
        const Call& call = sweep.calls[index];
        const DetectionOutcome again = traced_identification(
            window, analyzer, user, call.pattern, config, off);
        ++checked;
        if (again.detected != call.outcome.detected ||
            again.fraction != call.outcome.fraction)
          ++differing;
      }
    }
    gates.expect_equal("detect.window_sample", 0, differing);
    std::printf("window spot check: %zu outcomes re-derived\n", checked);
  }

  if (!options.trace) return;
  Tracer tracer(true);
  const Sweep traced = run_sweep(analyzer, units, starts, options.seed, tracer);
  Digest traced_all;
  for (const Call& call : traced.calls) digest_call(traced_all, call);
  gates.expect_equal("trace.reproduces", all.hex(), traced_all.hex());
  result.set_layer("trace.overhead_s", traced.wall_s - sweep.wall_s, "s");
  emit_layers(tracer, result);
  emit_setup_layers(setup_tracer, repeats, result);
  for (const char* counter :
       {"trace.prefix.fixes", "trace.decimate.fixes", "poi.extract.calls",
        "poi.extract.fixes", "poi.cluster.stays", "privacy.identify.calls",
        "privacy.identify.tests", "detect.probes"})
    result.set_layer(counter, tracer.counter(counter), "count");
  result.set_layer("detect.rescan_factor",
                   tracer.counter("poi.extract.fixes") /
                       tracer.counter("detect.swept_fixes"),
                   "ratio");
  tracer.write_csv(options.out_dir + "/detect_sweep-seed" +
                   std::to_string(options.seed) + ".spans.csv");
}

}  // namespace perfbench
