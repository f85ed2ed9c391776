#include "core/experiment.hpp"

#include <cstdlib>
#include <cstring>
#include <optional>

#include "util/expect.hpp"
#include "util/logging.hpp"
#include "util/sync.hpp"

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

namespace {
util::Mutex g_mutex;
std::optional<mobility::SyntheticDataset> g_dataset LOCPRIV_GUARDED_BY(g_mutex);
std::optional<PrivacyAnalyzer> g_analyzer LOCPRIV_GUARDED_BY(g_mutex);
bool g_dataset_shared LOCPRIV_GUARDED_BY(g_mutex) = false;  // a reader holds it
bool g_traces_taken LOCPRIV_GUARDED_BY(g_mutex) = false;    // the analyzer owns them

mobility::SyntheticDataset& dataset_locked() LOCPRIV_REQUIRES(g_mutex) {
  if (!g_dataset) {
    LOCPRIV_LOG(kInfo, "experiment") << "generating shared dataset";
    g_dataset = mobility::generate_dataset(experiment_dataset_config());
  }
  return *g_dataset;
}
}  // namespace

const mobility::SyntheticDataset& shared_dataset() {
  util::MutexLock lock(g_mutex);
  // The analyzer owns the traces now, so `users` would read back empty.
  LOCPRIV_EXPECT(!g_traces_taken);
  g_dataset_shared = true;
  return dataset_locked();
}

const PrivacyAnalyzer& shared_analyzer() {
  util::MutexLock lock(g_mutex);
  if (!g_analyzer) {
    mobility::SyntheticDataset& dataset = dataset_locked();
    if (g_dataset_shared) {
      // A reader holds the dataset: leave its traces intact.
      g_analyzer.emplace(experiment_analyzer_config(), dataset.users);
    } else {
      g_analyzer.emplace(experiment_analyzer_config(), std::move(dataset.users));
      g_traces_taken = true;
    }
  }
  return *g_analyzer;
}

}  // namespace locpriv::core
