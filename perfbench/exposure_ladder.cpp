// exposure_ladder: the Figure 3/5 exposure ladder at paper scale, in passes.
// Each pass covers every user x the 11-rung access_interval_ladder(); a cell
// is collected with trace::decimate and scored with evaluate_collected.
// Pass 0 polls from each trace's first fix (the paper's ladder); every later
// pass starts polling at a seeded fix of the first day, distinct per pass.
// There is no prefix re-scan, so a streaming pipeline should leave it
// unchanged, while the O(users) chi-square scan in Adversary::identify is a
// large share of it.
#include <cmath>

#include "common.hpp"
#include "core/experiment.hpp"
#include "stats/rng.hpp"
#include "trace/sampling.hpp"

namespace perfbench {

namespace {

using locpriv::core::ExposureReport;
using locpriv::core::PrivacyAnalyzer;
using locpriv::trace::TracePoint;

/// Ladder passes per requested second: --seconds 20 gives 14 passes, which
/// take 15-20 s on the reference host (4-vCPU KVM, Release build).
constexpr double kPassesPerSecond = 0.7;
/// Cells an untraced run re-scores through the decomposed pipeline.
constexpr std::size_t kSampleCells = 32;

/// PrivacyAnalyzer::evaluate_collected rebuilt from each layer's public
/// function, so a traced run can span every stage. Must stay
/// result-identical: the traced run checks it against the untraced reports.
ExposureReport traced_exposure(const PrivacyAnalyzer& analyzer,
                               std::size_t user, std::int64_t interval_s,
                               const std::vector<TracePoint>& collected,
                               Tracer& tracer) {
  using namespace locpriv;
  const core::UserReference& reference = analyzer.reference(user);
  const core::AnalyzerConfig& config = analyzer.config();
  ExposureReport report;
  report.interval_s = interval_s;
  report.collected_fixes = collected.size();
  if (collected.empty()) {
    report.poi_total.reference_count = reference.pois.size();
    for (const auto& poi : reference.pois)
      if (poi.visit_count() <= 3) ++report.poi_sensitive.reference_count;
    return report;
  }
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
  report.extracted_pois = pois.size();
  {
    Scope span(tracer, "privacy.recovery");
    report.poi_total =
        privacy::poi_recovery(reference.pois, pois, config.extraction.radius_m);
    report.poi_sensitive = privacy::sensitive_poi_recovery(
        reference.pois, pois, config.extraction.radius_m, 3);
  }
  privacy::PatternHistogram visits;
  privacy::PatternHistogram movements;
  {
    Scope span(tracer, "privacy.histogram");
    visits = privacy::visit_histogram(pois, analyzer.grid());
    movements = privacy::movement_histogram(pois, analyzer.grid());
  }
  {
    Scope span(tracer, "privacy.match");
    const privacy::MatchResult v =
        privacy::match_histograms(visits, reference.visits, config.match);
    const privacy::MatchResult m =
        privacy::match_histograms(movements, reference.movements, config.match);
    report.hisbin_visits = v.attempted && v.matches;
    report.hisbin_movements = m.attempted && m.matches;
  }
  const privacy::Adversary& adversary = analyzer.adversary();
  const auto identify = [&](const privacy::PatternHistogram& observed,
                            privacy::Pattern pattern) {
    Scope span(tracer, "privacy.identify");
    tracer.count("privacy.identify.calls", 1);
    tracer.count("privacy.identify.tests",
                 static_cast<double>(adversary.profile_count()));
    return adversary.identify(observed, pattern, config.match).degree_of_anonymity;
  };
  if (!visits.empty())
    report.anonymity_visits = identify(visits, privacy::Pattern::kVisits);
  if (!movements.empty())
    report.anonymity_movements = identify(movements, privacy::Pattern::kMovements);
  return report;
}

struct Cell {
  std::size_t user = 0;
  std::int64_t interval_s = 0;
  std::int64_t start_s = 0;  ///< Timestamp of the first fix polled.
};

void digest_report(Digest& digest, const ExposureReport& report) {
  digest.add_u64(static_cast<std::uint64_t>(report.interval_s));
  digest.add_u64(report.collected_fixes);
  digest.add_u64(report.extracted_pois);
  digest.add_u64(report.poi_total.reference_count);
  digest.add_u64(report.poi_total.recovered_count);
  digest.add_u64(report.poi_sensitive.reference_count);
  digest.add_u64(report.poi_sensitive.recovered_count);
  digest.add_u64(report.hisbin_visits ? 1 : 0);
  digest.add_u64(report.hisbin_movements ? 1 : 0);
  digest.add_f64(report.anonymity_visits);
  digest.add_f64(report.anonymity_movements);
}

/// The cells of `passes` ladder passes. decimate keeps the first fix at or
/// after its start and then chains from it, so a cell's input is fixed by
/// that first fix: pass 0 starts at fix 0, later passes at distinct
/// late_starts, and no two passes repeat a cell.
std::vector<Cell> make_cells(const PrivacyAnalyzer& analyzer, int passes,
                             std::uint64_t seed) {
  const std::vector<std::int64_t> ladder = core::access_interval_ladder();
  const std::size_t users = analyzer.user_count();
  locpriv::stats::Rng rng(seed);
  std::vector<std::size_t> first(static_cast<std::size_t>(passes) * users *
                                 ladder.size(), 0);
  for (std::size_t u = 0; u < users; ++u) {
    for (std::size_t r = 0; r < ladder.size(); ++r) {
      const std::vector<std::size_t> late = late_starts(
          analyzer.reference(u).points, static_cast<std::size_t>(passes - 1), rng);
      for (std::size_t p = 1; p < static_cast<std::size_t>(passes); ++p)
        first[(p * users + u) * ladder.size() + r] = late[p - 1];
    }
  }
  std::vector<Cell> cells;
  cells.reserve(first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    const std::size_t u = i / ladder.size() % users;
    cells.push_back({u, ladder[i % ladder.size()],
                     analyzer.reference(u).points[first[i]].timestamp_s});
  }
  return cells;
}

struct Ladder {
  std::vector<ExposureReport> reports;
  double wall_s = 0.0;
  double call_s = 0.0;
  double fixes = 0.0;
};

Ladder run_ladder(const PrivacyAnalyzer& analyzer,
                  const std::vector<Cell>& cells, Tracer& tracer) {
  Ladder ladder;
  ladder.reports.reserve(cells.size());
  const auto start = Clock::now();
  for (const Cell& cell : cells) {
    const auto& points = analyzer.reference(cell.user).points;
    const auto cell_start = Clock::now();
    Scope root(tracer, "exposure.cell");
    std::vector<TracePoint> collected;
    {
      Scope span(tracer, "trace.decimate");
      collected = locpriv::trace::decimate(points, cell.interval_s, cell.start_s);
    }
    tracer.count("trace.decimate.fixes", static_cast<double>(points.size()));
    ladder.reports.push_back(
        tracer.on() ? traced_exposure(analyzer, cell.user, cell.interval_s,
                                      collected, tracer)
                    : analyzer.evaluate_collected(cell.user, cell.interval_s,
                                                  collected));
    ladder.call_s += seconds_since(cell_start);
    ladder.fixes += static_cast<double>(points.size());
  }
  ladder.wall_s = seconds_since(start);
  return ladder;
}

}  // namespace

void run_exposure_ladder(const Options& options, Result& result) {
  Tracer setup_tracer(options.trace);
  std::unique_ptr<PrivacyAnalyzer> owned;
  const int repeats = 3;
  const double setup_s = median_setup(repeats, [&] {
    owned.reset();  // One corpus alive at a time, as for a real user.
    owned = build_analyzer(options, 12, setup_tracer);
  });
  const PrivacyAnalyzer& analyzer = *owned;
  const int passes =
      options.toy ? 2
                  : std::max(1, static_cast<int>(std::lround(
                                    options.seconds * kPassesPerSecond)));
  const std::vector<Cell> cells = make_cells(analyzer, passes, options.seed);

  Tracer off(false);
  const Ladder ladder = run_ladder(analyzer, cells, off);
  result.attempted = cells.size();
  result.set_e2e("setup_s", setup_s, "s");
  result.set_e2e("wall_s", ladder.wall_s, "s");
  result.set_e2e("fixes_per_s", ladder.fixes / ladder.call_s, "1/s");
  result.set_e2e("report_ms",
                 ladder.call_s * 1e3 / static_cast<double>(cells.size()), "ms");

  Gates gates(options, result);
  Digest all;
  Digest first_pass;
  const std::size_t first_cells =
      analyzer.user_count() * core::access_interval_ladder().size();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    digest_report(all, ladder.reports[i]);
    if (i < first_cells) digest_report(first_pass, ladder.reports[i]);
  }
  // Pass 0 polls from every trace's first fix on every rung, the same for
  // every workload seed, so it is pinned for all of them; the full digest
  // only for the pinned seeds.
  gates.expect_pinned("exposure.ladder_digest", "ladder_digest", false,
                      first_pass.hex());
  gates.expect_pinned("exposure.digest", "digest", true, all.hex());

  // Spot check: re-score a seeded sample of cells through the decomposed
  // pipeline and compare every report field.
  {
    locpriv::stats::Rng pick(options.seed ^ 0x5eedULL);
    Digest expected;
    Digest again;
    for (std::size_t n = 0; n < kSampleCells; ++n) {
      const std::size_t i = pick.next_below(cells.size());
      const Cell& cell = cells[i];
      const auto collected = locpriv::trace::decimate(
          analyzer.reference(cell.user).points, cell.interval_s, cell.start_s);
      digest_report(expected, ladder.reports[i]);
      digest_report(again, traced_exposure(analyzer, cell.user, cell.interval_s,
                                           collected, off));
    }
    gates.expect_equal("exposure.cell_sample", expected.hex(), again.hex());
  }

  if (!options.trace) return;
  Tracer tracer(true);
  const Ladder traced = run_ladder(analyzer, cells, tracer);
  Digest traced_all;
  for (const ExposureReport& report : traced.reports)
    digest_report(traced_all, report);
  gates.expect_equal("trace.reproduces", all.hex(), traced_all.hex());
  result.set_layer("trace.overhead_s", traced.wall_s - ladder.wall_s, "s");
  emit_layers(tracer, result);
  emit_setup_layers(setup_tracer, repeats, result);
  for (const char* counter :
       {"trace.decimate.fixes", "poi.extract.calls", "poi.extract.fixes",
        "poi.cluster.stays", "privacy.identify.calls", "privacy.identify.tests"})
    result.set_layer(counter, tracer.counter(counter), "count");
  tracer.write_csv(options.out_dir + "/exposure_ladder-seed" +
                   std::to_string(options.seed) + ".spans.csv");
}

}  // namespace perfbench
