// E3 — Figure 1: cumulative distribution of the interval between two
// background location requests across the 102 background apps. Intervals
// are measured from parsed dumpsys reports during the dynamic stage.
#include <iostream>

#include "bench_common.hpp"
#include "market/catalog.hpp"
#include "market/study.hpp"
#include "stats/ecdf.hpp"

int main() {
  using namespace locpriv;
  bench::print_header("E3: Figure 1 - CDF of background request intervals",
                      /*uses_mobility_corpus=*/false);

  market::CatalogConfig config;
  config.seed = core::kCatalogSeed;
  const market::Catalog catalog = market::generate_catalog(config);
  const market::MarketReport report = market::run_market_study(catalog, 7);

  std::vector<double> intervals;
  intervals.reserve(report.background_intervals.size());
  std::int64_t max_interval = 0;
  for (const std::int64_t interval : report.background_intervals) {
    intervals.push_back(static_cast<double>(interval));
    max_interval = std::max(max_interval, interval);
  }
  const stats::Ecdf cdf(std::move(intervals));

  bench::SeriesCsv csv("fig1_frequency_cdf");
  csv.row({"interval_s", "cdf"});
  util::ConsoleTable table({"interval <= (s)", "CDF measured", "CDF paper"});
  const std::pair<double, const char*> anchors[] = {
      {1.0, "-"},    {5.0, "-"},     {10.0, "57.8%"}, {30.0, "-"},
      {60.0, "68.6%"}, {120.0, "-"},  {300.0, "-"},    {600.0, "83.8%"},
      {1800.0, "-"}, {3600.0, "-"},  {7200.0, "100%"},
  };
  for (const auto& [x, paper] : anchors) {
    table.add_row({util::format_fixed(x, 0), util::format_percent(cdf(x), 1), paper});
    csv.row({util::format_fixed(x, 0), util::format_fixed(cdf(x), 4)});
  }
  table.print(std::cout);

  std::cout << '\n';
  bench::print_comparison("largest observed interval", "7200 s",
                          std::to_string(max_interval) + " s");
  int slowest = 0;
  for (const std::int64_t interval : report.background_intervals)
    if (interval == max_interval) ++slowest;
  bench::print_comparison("apps at the largest interval", "1", std::to_string(slowest));
  bench::print_comparison("sample size (background apps)", "102",
                          std::to_string(report.background_intervals.size()));
  return csv.commit();
}
