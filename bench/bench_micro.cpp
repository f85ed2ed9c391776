// E10 — google-benchmark microbenchmarks for the hot algorithmic kernels:
// stay-point extraction, decimation, histogram construction, chi-square
// matching, adversary identification, trip synthesis, and the geo::GeoTree
// spatial-index paths (build, radius, and the three routed consumers against
// their linear-scan twins).
//
// Besides the google-benchmark CLI, the binary has a kernel mode:
//
//   bench_micro --json BENCH_micro.json [--scale 100000] [--baseline FILE]
//
// which times each indexed hot path against its "before" linear scan at
// `--scale` points (and the one-pass prefix sweep against the per-probe
// loop it replaced), asserts the outputs are identical (both are pure perf
// changes), and writes the standardized BENCH_micro.json artifact with
// before/after nanoseconds and speedups. With --baseline it re-reads a
// committed artifact and exits non-zero if any kernel regressed by more
// than 2x — the CI perf-smoke gate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/analyzer.hpp"
#include "core/harness/atomic_file.hpp"
#include "geo/geotree.hpp"
#include "lppm/policy.hpp"
#include "mobility/synthesis.hpp"
#include "poi/clustering.hpp"
#include "poi/staypoint.hpp"
#include "privacy/detection.hpp"
#include "privacy/prediction.hpp"
#include "privacy/reconstruction.hpp"
#include "privacy/region.hpp"
#include "privacy/uniqueness.hpp"
#include "stats/rng.hpp"
#include "trace/sampling.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

using namespace locpriv;

// One simulated user's full-rate trace, built once.
const std::vector<trace::TracePoint>& sample_points() {
  static const std::vector<trace::TracePoint> points = [] {
    mobility::DatasetConfig config;
    config.user_count = 1;
    config.synthesis.days = 8;
    return mobility::generate_dataset(config).users[0].flattened();
  }();
  return points;
}

// A small analyzer for matcher/adversary benchmarks.
const core::PrivacyAnalyzer& bench_analyzer() {
  static const core::PrivacyAnalyzer analyzer = [] {
    mobility::DatasetConfig config;
    config.user_count = 16;
    config.synthesis.days = 6;
    return core::PrivacyAnalyzer::from_synthetic(core::AnalyzerConfig{}, config);
  }();
  return analyzer;
}

// ---------------------------------------------------------------------------
// Deterministic synthetic corpora for the spatial-index kernels. City-scale
// box (~55 x 50 km) around the paper's Beijing anchor.

std::vector<geo::LatLon> scatter(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<geo::LatLon> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({39.9 + rng.uniform(-0.25, 0.25), 116.4 + rng.uniform(-0.3, 0.3)});
  }
  return points;
}

// Stays jitter tightly around ~n/50 distinct places, so clustering converges
// to a PoI set in the thousands at 100k stays — large enough that the scan's
// O(S x P) inner loop dominates while the clusters themselves stay coherent.
std::vector<poi::StayPoint> make_stays(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  const std::size_t place_count = std::max<std::size_t>(std::size_t{1}, n / 50);
  const auto places = scatter(place_count, seed + 1);
  std::vector<poi::StayPoint> stays(n);
  std::int64_t t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const geo::LatLon& place = places[rng.next_below(place_count)];
    stays[i].centroid = {place.lat_deg + rng.uniform(-2e-4, 2e-4),
                         place.lon_deg + rng.uniform(-2e-4, 2e-4)};
    stays[i].enter_s = t;
    stays[i].exit_s = t + 600;
    stays[i].fix_count = 4;
    t += 900;
  }
  return stays;
}

// A time-ordered synthetic fix stream (30 s cadence) wandering the same box.
std::vector<trace::TracePoint> make_fixes(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<trace::TracePoint> fixes(n);
  geo::LatLon at{39.9, 116.4};
  for (std::size_t i = 0; i < n; ++i) {
    at.lat_deg = std::clamp(at.lat_deg + rng.uniform(-2e-3, 2e-3), 39.65, 40.15);
    at.lon_deg = std::clamp(at.lon_deg + rng.uniform(-2e-3, 2e-3), 116.1, 116.7);
    fixes[i] = {at, static_cast<std::int64_t>(i) * 30};
  }
  return fixes;
}

// ---------------------------------------------------------------------------
// google-benchmark registrations.

void BM_StayPointExtraction(benchmark::State& state) {
  const auto& points = sample_points();
  poi::ExtractionParams params;
  params.window_fixes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(poi::extract_stay_points(points, params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_StayPointExtraction)->Arg(4)->Arg(8)->Arg(16);

void BM_StayPointExtractionAnchor(benchmark::State& state) {
  const auto& points = sample_points();
  const poi::ExtractionParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(poi::extract_stay_points_anchor(points, params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_StayPointExtractionAnchor);

void BM_Decimate(benchmark::State& state) {
  const auto& points = sample_points();
  const std::int64_t interval = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::decimate(points, interval));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_Decimate)->Arg(10)->Arg(600);

void BM_ObservedHistogram(benchmark::State& state) {
  const auto& analyzer = bench_analyzer();
  const auto& points = analyzer.reference(0).points;
  for (auto _ : state) {
    benchmark::DoNotOptimize(privacy::observed_histogram(
        points, privacy::Pattern::kMovements, analyzer.config().extraction,
        analyzer.grid(), 1));
  }
}
BENCHMARK(BM_ObservedHistogram);

void BM_HistogramMatch(benchmark::State& state) {
  const auto& analyzer = bench_analyzer();
  const auto& profile = analyzer.reference(0).movements;
  const auto observed = privacy::observed_histogram(
      analyzer.reference(0).points, privacy::Pattern::kMovements,
      analyzer.config().extraction, analyzer.grid(), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        privacy::match_histograms(observed, profile, analyzer.config().match));
  }
}
BENCHMARK(BM_HistogramMatch);

void BM_AdversaryIdentify(benchmark::State& state) {
  const auto& analyzer = bench_analyzer();
  const auto observed = privacy::observed_histogram(
      analyzer.reference(0).points, privacy::Pattern::kMovements,
      analyzer.config().extraction, analyzer.grid(), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.adversary().identify(
        observed, privacy::Pattern::kMovements, analyzer.config().match));
  }
}
BENCHMARK(BM_AdversaryIdentify);

void BM_UnicityQuery(benchmark::State& state) {
  const auto& analyzer = bench_analyzer();
  std::vector<std::set<privacy::StPoint>> corpus;
  for (std::size_t u = 0; u < analyzer.user_count(); ++u)
    corpus.push_back(privacy::quantize_trace(
        trace::decimate(analyzer.reference(u).points, 60), analyzer.grid(), 1));
  stats::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(privacy::unicity(corpus, 3, 2, rng));
  }
}
BENCHMARK(BM_UnicityQuery);

void BM_NextPlacePrediction(benchmark::State& state) {
  const auto& analyzer = bench_analyzer();
  const privacy::NextPlacePredictor predictor(analyzer.reference(0).movements);
  const auto sequence =
      privacy::region_sequence(analyzer.reference(0).pois, analyzer.grid());
  for (auto _ : state) {
    benchmark::DoNotOptimize(privacy::score_predictions(predictor, sequence));
  }
}
BENCHMARK(BM_NextPlacePrediction);

void BM_GuardianPolicyApply(benchmark::State& state) {
  lppm::GuardianPolicy policy({39.9042, 116.4074}, 1000.0);
  policy.protect_place({39.91, 116.41}, 200.0);
  geo::LatLon position{39.95, 116.45};
  for (auto _ : state) {
    geo::LatLon p = position;
    benchmark::DoNotOptimize(policy.apply("com.app", true, p));
  }
}
BENCHMARK(BM_GuardianPolicyApply);

void BM_TripSynthesisPerDay(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    mobility::DatasetConfig config;
    config.user_count = 1;
    config.synthesis.days = 4;
    state.ResumeTiming();
    benchmark::DoNotOptimize(mobility::generate_dataset(config));
  }
}
BENCHMARK(BM_TripSynthesisPerDay);

void BM_GeoTreeBuild(benchmark::State& state) {
  const auto points = scatter(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::GeoTree(points));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GeoTreeBuild)->Arg(10000)->Arg(100000);

void BM_GeoTreeRadiusQuery(benchmark::State& state) {
  const geo::GeoTree tree(scatter(static_cast<std::size_t>(state.range(0)), 7));
  const auto centers = scatter(64, 11);
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.query_radius(centers[q++ % centers.size()], 250.0));
  }
}
BENCHMARK(BM_GeoTreeRadiusQuery)->Arg(10000)->Arg(100000);

void BM_PoiAssignment(benchmark::State& state) {
  const auto stays = make_stays(static_cast<std::size_t>(state.range(0)), 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(poi::cluster_stay_points(stays, 100.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PoiAssignment)->Arg(10000)->Arg(100000);

void BM_PoiAssignmentScan(benchmark::State& state) {
  const auto stays = make_stays(static_cast<std::size_t>(state.range(0)), 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(poi::cluster_stay_points_scan(stays, 100.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PoiAssignmentScan)->Arg(10000);

void BM_ReconstructionCandidates(benchmark::State& state) {
  const privacy::PositionEstimator estimator(
      make_fixes(static_cast<std::size_t>(state.range(0)), 19));
  const auto centers = scatter(64, 23);
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimator.fixes_near(centers[q++ % centers.size()], 250.0));
  }
}
BENCHMARK(BM_ReconstructionCandidates)->Arg(10000)->Arg(100000);

void BM_ReconstructionCandidatesScan(benchmark::State& state) {
  const privacy::PositionEstimator estimator(
      make_fixes(static_cast<std::size_t>(state.range(0)), 19));
  const auto centers = scatter(64, 23);
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimator.fixes_near_scan(centers[q++ % centers.size()], 250.0));
  }
}
BENCHMARK(BM_ReconstructionCandidatesScan)->Arg(10000);

void BM_RegionContainment(benchmark::State& state) {
  const auto points = scatter(static_cast<std::size_t>(state.range(0)), 29);
  const geo::GeoTree tree(points);
  const privacy::RegionGrid grid({39.9, 116.4}, 250.0);
  const auto centers = scatter(64, 31);
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        grid.points_in_region(tree, grid.region_of(centers[q++ % centers.size()])));
  }
}
BENCHMARK(BM_RegionContainment)->Arg(10000)->Arg(100000);

// ---------------------------------------------------------------------------
// Kernel mode: timed before/after pairs behind the BENCH_micro.json artifact.

using Clock = std::chrono::steady_clock;

// Best-of-`reps` wall time of fn(), in nanoseconds.
template <typename Fn>
double time_ns(Fn&& fn, int reps = 3) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
            .count());
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

struct KernelResult {
  std::string name;
  std::int64_t items = 0;
  std::int64_t queries = 0;  // 0 when the kernel has no query loop.
  double scan_ns = 0.0;      // 0 when there is no linear-scan twin.
  double indexed_ns = 0.0;
  bool identical = true;  // Indexed output byte-equal to the scan's.
};

bool pois_identical(const std::vector<poi::Poi>& a, const std::vector<poi::Poi>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].centroid.lat_deg != b[i].centroid.lat_deg ||
        a[i].centroid.lon_deg != b[i].centroid.lon_deg ||
        a[i].visits.size() != b[i].visits.size())
      return false;
  }
  return true;
}

// The identification sweep as it ran before the one-pass prefix stream:
// every probe cuts its prefix and reruns decimate, extract, cluster and
// build on it.
privacy::DetectionOutcome per_probe_identification(
    const std::vector<trace::TracePoint>& points, const privacy::Adversary& adversary,
    std::size_t user, privacy::Pattern pattern, const privacy::DetectionConfig& config) {
  for (const double fraction : config.fractions) {
    const auto prefix = trace::take_prefix_fraction(points, fraction);
    if (prefix.empty()) continue;
    const auto observed = privacy::observed_histogram(prefix, pattern, config.extraction,
                                                      config.grid, config.interval_s);
    if (observed.empty()) continue;
    const auto result = adversary.identify(observed, pattern, config.match);
    if (result.matched.size() == 1 && result.matched.front() == user)
      return {true, fraction};
  }
  return {};
}

std::vector<KernelResult> run_kernels(std::size_t scale) {
  std::vector<KernelResult> results;
  const auto query_centers = scatter(256, 23);

  {
    const auto stays = make_stays(scale, 17);
    KernelResult r{"poi_assignment", static_cast<std::int64_t>(scale), 0, 0.0, 0.0};
    std::vector<poi::Poi> scan_pois, indexed_pois;
    r.scan_ns = time_ns([&] { scan_pois = poi::cluster_stay_points_scan(stays, 100.0); });
    r.indexed_ns = time_ns([&] { indexed_pois = poi::cluster_stay_points(stays, 100.0); });
    r.identical = pois_identical(scan_pois, indexed_pois);
    std::fprintf(stderr, "poi_assignment: %zu stays -> %zu pois, %.1fms scan / %.1fms indexed\n",
                 stays.size(), indexed_pois.size(), r.scan_ns / 1e6, r.indexed_ns / 1e6);
    results.push_back(r);
  }

  {
    const auto fixes = make_fixes(scale, 19);
    const privacy::PositionEstimator estimator(fixes);
    KernelResult r{"reconstruction_candidates", static_cast<std::int64_t>(scale),
                   static_cast<std::int64_t>(query_centers.size()), 0.0, 0.0};
    std::size_t scan_total = 0, indexed_total = 0;
    r.scan_ns = time_ns([&] {
      scan_total = 0;
      for (const auto& c : query_centers)
        scan_total += estimator.fixes_near_scan(c, 250.0).size();
    });
    r.indexed_ns = time_ns([&] {
      indexed_total = 0;
      for (const auto& c : query_centers)
        indexed_total += estimator.fixes_near(c, 250.0).size();
    });
    r.identical = scan_total == indexed_total;
    for (const auto& c : query_centers) {
      if (estimator.fixes_near(c, 250.0) != estimator.fixes_near_scan(c, 250.0)) {
        r.identical = false;
        break;
      }
    }
    std::fprintf(stderr,
                 "reconstruction_candidates: %zu fixes, %zu queries, %.1fms scan / %.1fms indexed\n",
                 fixes.size(), query_centers.size(), r.scan_ns / 1e6, r.indexed_ns / 1e6);
    results.push_back(r);
  }

  {
    const auto points = scatter(scale, 29);
    const geo::GeoTree tree(points);
    const privacy::RegionGrid grid({39.9, 116.4}, 250.0);
    KernelResult r{"region_containment", static_cast<std::int64_t>(scale),
                   static_cast<std::int64_t>(query_centers.size()), 0.0, 0.0};
    std::size_t scan_total = 0, indexed_total = 0;
    r.scan_ns = time_ns([&] {
      scan_total = 0;
      for (const auto& c : query_centers)
        scan_total += grid.points_in_region_scan(points, grid.region_of(c)).size();
    });
    r.indexed_ns = time_ns([&] {
      indexed_total = 0;
      for (const auto& c : query_centers)
        indexed_total += grid.points_in_region(tree, grid.region_of(c)).size();
    });
    r.identical = scan_total == indexed_total;
    for (const auto& c : query_centers) {
      const auto id = grid.region_of(c);
      if (grid.points_in_region(tree, id) != grid.points_in_region_scan(points, id)) {
        r.identical = false;
        break;
      }
    }
    std::fprintf(stderr, "region_containment: %zu points, %zu queries, %.1fms scan / %.1fms indexed\n",
                 points.size(), query_centers.size(), r.scan_ns / 1e6, r.indexed_ns / 1e6);
    results.push_back(r);
  }

  {
    const auto points = scatter(scale, 7);
    KernelResult r{"geotree_build", static_cast<std::int64_t>(scale), 0, 0.0, 0.0};
    r.indexed_ns = time_ns([&] { benchmark::DoNotOptimize(geo::GeoTree(points)); });
    results.push_back(r);

    const geo::GeoTree tree(points);
    KernelResult radius{"geotree_radius_query", static_cast<std::int64_t>(scale),
                        static_cast<std::int64_t>(query_centers.size()), 0.0, 0.0};
    radius.indexed_ns = time_ns([&] {
      for (const auto& c : query_centers)
        benchmark::DoNotOptimize(tree.query_radius(c, 250.0));
    });
    results.push_back(radius);
  }

  {
    // Figure 4's identification sweep over every bench_analyzer() user and
    // both patterns at 1 s (a fixed corpus; --scale does not apply).
    const auto& analyzer = bench_analyzer();
    privacy::DetectionConfig config(analyzer.grid());
    config.extraction = analyzer.config().extraction;
    config.match = analyzer.config().match;
    std::int64_t fixes = 0;
    for (std::size_t u = 0; u < analyzer.user_count(); ++u)
      fixes += static_cast<std::int64_t>(analyzer.reference(u).points.size());
    const auto sweep_all = [&](auto&& sweep) {
      std::vector<privacy::DetectionOutcome> outcomes;
      for (std::size_t u = 0; u < analyzer.user_count(); ++u)
        for (const auto pattern : {privacy::Pattern::kVisits, privacy::Pattern::kMovements})
          outcomes.push_back(sweep(analyzer.reference(u).points, u, pattern));
      return outcomes;
    };
    KernelResult r{"prefix_sweep", fixes,
                   static_cast<std::int64_t>(2 * analyzer.user_count()), 0.0, 0.0};
    std::vector<privacy::DetectionOutcome> scan, indexed;
    r.scan_ns = time_ns([&] {
      scan = sweep_all([&](const auto& points, std::size_t u, privacy::Pattern pattern) {
        return per_probe_identification(points, analyzer.adversary(), u, pattern, config);
      });
    });
    r.indexed_ns = time_ns([&] {
      indexed = sweep_all([&](const auto& points, std::size_t u, privacy::Pattern pattern) {
        return privacy::earliest_identification(points, analyzer.adversary(), u, pattern,
                                                config);
      });
    });
    r.identical = std::equal(scan.begin(), scan.end(), indexed.begin(), indexed.end(),
                             [](const auto& a, const auto& b) {
                               return a.detected == b.detected && a.fraction == b.fraction;
                             });
    std::fprintf(stderr, "prefix_sweep: %zu users, %lld fixes, %.1fms per-probe / %.1fms one-pass\n",
                 analyzer.user_count(), static_cast<long long>(fixes), r.scan_ns / 1e6,
                 r.indexed_ns / 1e6);
    results.push_back(r);
  }

  return results;
}

std::string kernels_to_json(const std::vector<KernelResult>& results,
                            std::size_t scale) {
  util::JsonWriter json;
  json.begin_object();
  bench::write_bench_header(json, "micro");
  json.member("scale", static_cast<std::int64_t>(scale));
  json.key("kernels");
  json.begin_array();
  for (const auto& r : results) {
    json.begin_object();
    json.member("name", r.name);
    json.member("items", r.items);
    if (r.queries > 0) json.member("queries", r.queries);
    if (r.scan_ns > 0.0) {
      json.member("scan_ns", r.scan_ns);
      json.member("speedup", r.scan_ns / r.indexed_ns);
      json.member("identical", r.identical);
    }
    json.member("indexed_ns", r.indexed_ns);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

// Hand-rolled scanner over a committed BENCH_micro.json (the repo has a JSON
// writer but no parser): finds the kernel object named `name` and returns its
// "indexed_ns" value, or a negative number when absent.
double baseline_indexed_ns(const std::string& text, const std::string& name) {
  const std::string anchor = "\"name\":\"" + util::json_escape(name) + "\"";
  const std::size_t at = text.find(anchor);
  if (at == std::string::npos) return -1.0;
  const std::size_t object_end = text.find('}', at);
  const std::string key = "\"indexed_ns\":";
  const std::size_t key_at = text.find(key, at);
  if (key_at == std::string::npos || key_at > object_end) return -1.0;
  const std::size_t value_at = key_at + key.size();
  const std::string_view number = std::string_view(text).substr(
      value_at, text.find_first_of(",}", value_at) - value_at);
  double value = 0.0;
  return util::parse_double(number, value) ? value : -1.0;
}

int run_kernel_mode(const std::string& json_path, const std::string& baseline_path,
                    std::size_t scale) {
  const auto results = run_kernels(scale);
  const std::string artifact = kernels_to_json(results, scale);

  bool ok = true;
  for (const auto& r : results) {
    if (!r.identical) {
      std::fprintf(stderr, "FAIL %s: indexed output differs from scan twin\n",
                   r.name.c_str());
      ok = false;
    }
  }

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "FAIL: cannot read baseline %s\n", baseline_path.c_str());
      ok = false;
    } else {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const std::string baseline = buffer.str();
      for (const auto& r : results) {
        const double base_ns = baseline_indexed_ns(baseline, r.name);
        if (base_ns <= 0.0) {
          std::fprintf(stderr, "perf-smoke %-26s no baseline entry, skipped\n",
                       r.name.c_str());
          continue;
        }
        const double ratio = r.indexed_ns / base_ns;
        std::fprintf(stderr, "perf-smoke %-26s %8.1fms vs baseline %8.1fms (%.2fx)\n",
                     r.name.c_str(), r.indexed_ns / 1e6, base_ns / 1e6, ratio);
        if (ratio > 2.0) {
          std::fprintf(stderr, "FAIL %s: regressed %.2fx over baseline (gate: 2x)\n",
                       r.name.c_str(), ratio);
          ok = false;
        }
      }
    }
  }

  if (!json_path.empty()) harness::write_file_atomic(json_path, artifact + "\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string baseline_path;
  std::size_t scale = 100000;
  bool kernel_mode = false;

  std::vector<char*> forwarded;
  forwarded.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const auto take_value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) return nullptr;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (const char* v = take_value("--json")) {
      json_path = v;
      kernel_mode = true;
    } else if (const char* v = take_value("--baseline")) {
      baseline_path = v;
      kernel_mode = true;
    } else if (const char* v = take_value("--scale")) {
      scale = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else {
      forwarded.push_back(argv[i]);
    }
  }
  if (kernel_mode) return run_kernel_mode(json_path, baseline_path, scale);

  int forwarded_argc = static_cast<int>(forwarded.size());
  benchmark::Initialize(&forwarded_argc, forwarded.data());
  if (benchmark::ReportUnrecognizedArguments(forwarded_argc, forwarded.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
