#include "core/experiment.hpp"

#include <cstdlib>
#include <cstring>

#include "core/harness/error.hpp"
#include "core/harness/sweep.hpp"
#include "util/logging.hpp"

namespace locpriv::core {

std::vector<std::int64_t> access_interval_ladder() {
  return {1, 5, 10, 30, 60, 120, 300, 600, 1800, 3600, 7200};
}

ExperimentScale experiment_scale() {
  const char* flag = std::getenv("LOCPRIV_REDUCED_SCALE");
  if (flag != nullptr && std::strcmp(flag, "1") == 0) return {60, 8};
  return {182, 12};
}

mobility::DatasetConfig experiment_dataset_config() {
  mobility::DatasetConfig config;
  config.seed = kDatasetSeed;
  const ExperimentScale scale = experiment_scale();
  config.user_count = scale.user_count;
  config.synthesis.days = scale.days;
  return config;
}

AnalyzerConfig experiment_analyzer_config() {
  AnalyzerConfig config;
  config.extraction = poi::table3_parameter_sets()[0];  // 50 m / 10 min.
  config.region_cell_m = 250.0;
  config.match.alpha = 0.05;
  return config;
}

ExperimentCorpus experiment_corpus() {
  LOCPRIV_LOG(kInfo, "experiment") << "generating the experiment corpus";
  mobility::SyntheticDataset dataset =
      mobility::generate_dataset(experiment_dataset_config());
  PrivacyAnalyzer analyzer(experiment_analyzer_config(), std::move(dataset.users));
  return {std::move(analyzer), CorpusTruth(std::move(dataset))};
}

std::int64_t interval_arg(const util::Args& args) {
  const std::int64_t interval_s = args.get_int("--interval");
  if (interval_s < 1)
    throw Error(ErrorCode::kUsage,
                "--interval must be at least 1 s, got " + args.get("--interval"));
  return interval_s;
}

mobility::DatasetConfig synthetic_corpus(const util::Args& args, std::uint64_t seed) {
  mobility::DatasetConfig config;
  config.seed = seed;
  config.user_count =
      static_cast<int>(args.get_int("--users", 1, harness::kMaxFlagCount));
  config.synthesis.days =
      static_cast<int>(args.get_int("--days", 1, harness::kMaxFlagCount));
  const std::int64_t limit = mobility::max_user_count(config);
  if (config.user_count > limit)
    throw Error(ErrorCode::kUsage,
                "--users must be at most " + std::to_string(limit) +
                    ", the home sites of the city seed " + std::to_string(seed) +
                    " generates; got " + args.get("--users"));
  return config;
}

}  // namespace locpriv::core
