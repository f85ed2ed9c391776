// E10 — google-benchmark microbenchmarks for the hot algorithmic kernels:
// stay-point extraction, decimation, histogram construction, chi-square
// matching, adversary identification and trip synthesis.
//
// Besides the google-benchmark CLI, the binary has a kernel mode:
//
//   bench_micro --json BENCH_micro.json [--baseline FILE]
//
// which times four kernels against the code they replaced — the one-pass
// prefix sweep against the per-probe loop, candidate-only
// Adversary::identify against a match over every profile, a locprivd
// shard report scored from checkpointed stay-point streams against the
// re-extraction over every fix it replaced, and the exposure ladder's cells
// (decimate + evaluate_collected) against an exact-only extractor fed by a
// decimate that grows its output fix by fix — asserts the outputs are
// identical (pure perf changes), and writes the standardized
// BENCH_micro.json artifact with before/after nanoseconds and the speedup.
// With --baseline it re-reads a committed artifact and exits non-zero if a
// kernel regressed by more than 2x — the CI perf-smoke gate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "core/analyzer.hpp"
#include "core/experiment.hpp"
#include "core/harness/atomic_file.hpp"
#include "geo/geodesy.hpp"
#include "lppm/policy.hpp"
#include "mobility/synthesis.hpp"
#include "poi/staypoint.hpp"
#include "privacy/detection.hpp"
#include "privacy/prediction.hpp"
#include "privacy/uniqueness.hpp"
#include "service/snapshot.hpp"
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
    return std::move(mobility::generate_dataset(config).users[0]).take_points();
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

// One before/after pair. The field names are the artifact's keys: scan_ns
// times the "before" code and indexed_ns the "after" code the gate checks.
struct KernelResult {
  std::string name;
  std::int64_t items = 0;
  std::int64_t queries = 0;
  double scan_ns = 0.0;
  double indexed_ns = 0.0;
  bool identical = true;  // "After" output equal to the "before" output.
};

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
    if (result.identifies(user)) return {true, fraction};
  }
  return {};
}

// Identification as it ran before the inverted key index: match_histograms
// over every stored profile. Returns the matching profile indices.
std::vector<std::size_t> scan_matches(const privacy::Adversary& adversary,
                                      const privacy::PatternHistogram& observed,
                                      privacy::Pattern pattern,
                                      const privacy::MatchParams& params) {
  std::vector<std::size_t> matched;
  for (std::size_t i = 0; i < adversary.profile_count(); ++i) {
    const privacy::MatchResult match =
        privacy::match_histograms(observed, adversary.profile(i).histogram(pattern), params);
    if (match.attempted && match.matches) matched.push_back(i);
  }
  return matched;
}

// StayPointStream::push as it ran before the bound, on the same ring: every
// entry and exit test computes both centroids and equirectangular_m.
class ExactOnlyStream {
 public:
  explicit ExactOnlyStream(const poi::ExtractionParams& params)
      : params_(params),
        half_(params.window_fixes / 2),
        ring_(std::bit_ceil(params.window_fixes + 1)),
        mask_(ring_.size() - 1) {}

  void push(const trace::TracePoint& point) {
    const std::size_t window = params_.window_fixes;
    ring_[(head_ + size_) & mask_] = point;
    ++size_;
    if (!inside_) {
      if (size_ > window) pop_front();
      if (size_ < window) return;
      if (geo::equirectangular_m(centroid_of(0), centroid_of(half_)) < params_.radius_m) {
        inside_ = true;
        enter_s_ = at(half_).timestamp_s;
        for (std::size_t i = half_; i < size_; ++i) attribute(at(i));
        size_ = 0;
      }
      return;
    }
    for (; size_ > window; pop_front()) attribute(at(0));
    if (size_ < window) return;
    const geo::LatLon stay{lat_sum_ / static_cast<double>(count_),
                           lon_sum_ / static_cast<double>(count_)};
    if (geo::equirectangular_m(stay, centroid_of(0)) > params_.radius_m) {
      close(half_);
      for (std::size_t i = 0; i < half_; ++i) pop_front();
    }
  }

  std::vector<poi::StayPoint> finish() {
    if (inside_) close(size_);
    return std::move(stays_);
  }

 private:
  const trace::TracePoint& at(std::size_t i) const { return ring_[(head_ + i) & mask_]; }
  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }
  geo::LatLon centroid_of(std::size_t begin) const {
    double lat = 0.0;
    double lon = 0.0;
    for (std::size_t i = begin; i < size_; ++i) {
      lat += at(i).position.lat_deg;
      lon += at(i).position.lon_deg;
    }
    const auto n = static_cast<double>(size_ - begin);
    return {lat / n, lon / n};
  }
  void attribute(const trace::TracePoint& point) {
    lat_sum_ += point.position.lat_deg;
    lon_sum_ += point.position.lon_deg;
    ++count_;
    last_s_ = point.timestamp_s;
  }
  // The open stay closed after the first `overlap` window fixes join it.
  void close(std::size_t overlap) {
    for (std::size_t i = 0; i < overlap; ++i) attribute(at(i));
    if (last_s_ - enter_s_ >= params_.min_visit_s)
      stays_.push_back({{lat_sum_ / static_cast<double>(count_),
                         lon_sum_ / static_cast<double>(count_)},
                        enter_s_, last_s_, count_});
    lat_sum_ = lon_sum_ = 0.0;
    count_ = 0;
    last_s_ = 0;
    inside_ = false;
  }

  poi::ExtractionParams params_;
  std::size_t half_;
  std::vector<trace::TracePoint> ring_;
  std::size_t mask_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  bool inside_ = false;
  std::int64_t enter_s_ = 0;
  double lat_sum_ = 0.0;
  double lon_sum_ = 0.0;
  std::size_t count_ = 0;
  std::int64_t last_s_ = 0;
  std::vector<poi::StayPoint> stays_;
};

// trace::decimate from the first fix as it ran before it reserved its result.
std::vector<trace::TracePoint> grown_decimate(const std::vector<trace::TracePoint>& points,
                                              std::int64_t interval_s) {
  std::vector<trace::TracePoint> out;
  std::int64_t next_due = points.empty() ? 0 : points.front().timestamp_s;
  for (const auto& point : points) {
    if (point.timestamp_s < next_due) continue;
    next_due = point.timestamp_s + interval_s;
    out.push_back(point);
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Every ExposureReport field, doubles bit for bit.
bool same_report(const core::ExposureReport& a, const core::ExposureReport& b) {
  return a.interval_s == b.interval_s && a.collected_fixes == b.collected_fixes &&
         a.extracted_pois == b.extracted_pois &&
         a.poi_total.reference_count == b.poi_total.reference_count &&
         a.poi_total.recovered_count == b.poi_total.recovered_count &&
         a.poi_sensitive.reference_count == b.poi_sensitive.reference_count &&
         a.poi_sensitive.recovered_count == b.poi_sensitive.recovered_count &&
         a.hisbin_visits == b.hisbin_visits && a.hisbin_movements == b.hisbin_movements &&
         same_bits(a.anonymity_visits, b.anonymity_visits) &&
         same_bits(a.anonymity_movements, b.anonymity_movements) &&
         a.matches_movements == b.matches_movements &&
         a.identified_movements == b.identified_movements;
}

std::vector<KernelResult> run_kernels() {
  std::vector<KernelResult> results;

  {
    // Figure 4's identification sweep over every bench_analyzer() user and
    // both patterns at 1 s.
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

  {
    // Every user's full-trace histograms at 1, 60 and 600 s, both patterns,
    // identified against the paper-scale 182 profiles.
    mobility::DatasetConfig dataset;
    dataset.user_count = 182;
    dataset.synthesis.days = 4;
    const core::PrivacyAnalyzer analyzer =
        core::PrivacyAnalyzer::from_synthetic(core::AnalyzerConfig{}, dataset);
    const privacy::Adversary& adversary = analyzer.adversary();
    const privacy::MatchParams& params = analyzer.config().match;
    std::vector<std::pair<privacy::Pattern, privacy::PatternHistogram>> queries;
    for (std::size_t u = 0; u < analyzer.user_count(); ++u)
      for (const std::int64_t interval : {1, 60, 600})
        for (const auto pattern : {privacy::Pattern::kVisits, privacy::Pattern::kMovements})
          queries.emplace_back(pattern, privacy::observed_histogram(
                                            analyzer.reference(u).points, pattern,
                                            analyzer.config().extraction, analyzer.grid(),
                                            interval));
    KernelResult r{"identify", static_cast<std::int64_t>(adversary.profile_count()),
                   static_cast<std::int64_t>(queries.size()), 0.0, 0.0};
    std::vector<std::vector<std::size_t>> scan, indexed;
    r.scan_ns = time_ns([&] {
      scan.clear();
      for (const auto& [pattern, observed] : queries)
        scan.push_back(scan_matches(adversary, observed, pattern, params));
    });
    r.indexed_ns = time_ns([&] {
      indexed.clear();
      for (const auto& [pattern, observed] : queries)
        indexed.push_back(adversary.identify(observed, pattern, params).matched);
    });
    r.identical = scan == indexed;
    std::fprintf(stderr,
                 "identify: %zu profiles, %zu queries, %.1fms full scan / %.1fms candidates\n",
                 adversary.profile_count(), queries.size(), r.scan_ns / 1e6,
                 r.indexed_ns / 1e6);
    results.push_back(r);
  }

  {
    // Eight locprivd shard reports over every bench_analyzer() user's full
    // trace, collected at 60 s. Before: evaluate_collected re-extracts each
    // user's fixes. After: evaluate_stays on each user's stream, restored
    // from an encoded snapshot as a respawned shard restores it.
    const auto& analyzer = bench_analyzer();
    constexpr std::int64_t kInterval = 60;
    constexpr int kReports = 8;
    service::ShardSnapshot held;
    held.params = analyzer.config().extraction;
    std::int64_t fixes = 0;
    for (std::size_t u = 0; u < analyzer.user_count(); ++u) {
      const auto& points = analyzer.reference(u).points;
      service::UserStays& user =
          held.users.try_emplace(analyzer.reference(u).user_id, held.params).first->second;
      for (const auto& point : points) user.stream.push(point);
      user.fixes = points.size();
      fixes += static_cast<std::int64_t>(points.size());
    }
    const service::ShardSnapshot restored =
        service::parse_snapshot(service::encode_snapshot(held));
    KernelResult r{"shard_report", fixes,
                   static_cast<std::int64_t>(kReports * analyzer.user_count()), 0.0, 0.0};
    std::vector<core::ExposureReport> scan, indexed;
    r.scan_ns = time_ns([&] {
      scan.clear();
      for (int k = 0; k < kReports; ++k)
        for (std::size_t u = 0; u < analyzer.user_count(); ++u)
          scan.push_back(
              analyzer.evaluate_collected(u, kInterval, analyzer.reference(u).points));
    });
    r.indexed_ns = time_ns([&] {
      indexed.clear();
      for (int k = 0; k < kReports; ++k)
        for (std::size_t u = 0; u < analyzer.user_count(); ++u) {
          const service::UserStays& user =
              restored.users.at(analyzer.reference(u).user_id);
          indexed.push_back(analyzer.evaluate_stays(u, kInterval, user.fixes,
                                                    user.stream.peek_close()));
        }
    });
    r.identical =
        std::equal(scan.begin(), scan.end(), indexed.begin(), indexed.end(), same_report);
    std::fprintf(stderr,
                 "shard_report: %d reports x %zu users, %lld fixes, %.1fms re-extracted / "
                 "%.1fms from stays\n",
                 kReports, analyzer.user_count(), static_cast<long long>(fixes), r.scan_ns / 1e6,
                 r.indexed_ns / 1e6);
    results.push_back(r);
  }

  {
    // Figures 3/5's exposure ladder over every bench_analyzer() user: each
    // cell decimated from the first fix and scored. Before: the exact-only
    // extractor on a decimate grown fix by fix, scored from its stays.
    const auto& analyzer = bench_analyzer();
    const std::vector<std::int64_t> ladder = core::access_interval_ladder();
    const poi::ExtractionParams& params = analyzer.config().extraction;
    std::int64_t fixes = 0;
    for (std::size_t u = 0; u < analyzer.user_count(); ++u)
      fixes += static_cast<std::int64_t>(analyzer.reference(u).points.size());
    KernelResult r{"exposure_cell", fixes,
                   static_cast<std::int64_t>(analyzer.user_count() * ladder.size()), 0.0, 0.0};
    std::vector<core::ExposureReport> scan, indexed;
    r.scan_ns = time_ns([&] {
      scan.clear();
      for (std::size_t u = 0; u < analyzer.user_count(); ++u)
        for (const std::int64_t interval_s : ladder) {
          const auto collected = grown_decimate(analyzer.reference(u).points, interval_s);
          ExactOnlyStream stream(params);
          for (const auto& point : collected) stream.push(point);
          scan.push_back(
              analyzer.evaluate_stays(u, interval_s, collected.size(), stream.finish()));
        }
    });
    r.indexed_ns = time_ns([&] {
      indexed.clear();
      for (std::size_t u = 0; u < analyzer.user_count(); ++u)
        for (const std::int64_t interval_s : ladder)
          indexed.push_back(analyzer.evaluate_collected(
              u, interval_s, trace::decimate(analyzer.reference(u).points, interval_s)));
    });
    r.identical =
        std::equal(scan.begin(), scan.end(), indexed.begin(), indexed.end(), same_report);
    std::fprintf(stderr,
                 "exposure_cell: %zu users x %zu rungs, %lld fixes, %.1fms exact-only / "
                 "%.1fms bounded\n",
                 analyzer.user_count(), ladder.size(), static_cast<long long>(fixes),
                 r.scan_ns / 1e6, r.indexed_ns / 1e6);
    results.push_back(r);
  }

  return results;
}

std::string kernels_to_json(const std::vector<KernelResult>& results) {
  util::JsonWriter json;
  json.begin_object();
  bench::write_bench_header(json, "micro");
  json.key("kernels");
  json.begin_array();
  for (const auto& r : results) {
    json.begin_object();
    json.member("name", r.name);
    json.member("items", r.items);
    json.member("queries", r.queries);
    json.member("scan_ns", r.scan_ns);
    json.member("speedup", r.scan_ns / r.indexed_ns);
    json.member("identical", r.identical);
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

int run_kernel_mode(const std::string& json_path, const std::string& baseline_path) {
  const auto results = run_kernels();
  const std::string artifact = kernels_to_json(results);

  bool ok = true;
  for (const auto& r : results) {
    if (!r.identical) {
      std::fprintf(stderr, "FAIL %s: output differs from the code it replaced\n",
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
    } else {
      forwarded.push_back(argv[i]);
    }
  }
  if (kernel_mode) return run_kernel_mode(json_path, baseline_path);

  int forwarded_argc = static_cast<int>(forwarded.size());
  benchmark::Initialize(&forwarded_argc, forwarded.data());
  if (benchmark::ReportUnrecognizedArguments(forwarded_argc, forwarded.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
