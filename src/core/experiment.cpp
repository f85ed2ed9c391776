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
/// Who holds the shared traces. They live in the dataset until one of the
/// two readers claims them; the other is then refused.
enum class TraceHolder { kDataset, kReader, kAnalyzer };

util::Mutex g_mutex;
std::optional<mobility::SyntheticDataset> g_dataset LOCPRIV_GUARDED_BY(g_mutex);
std::optional<PrivacyAnalyzer> g_analyzer LOCPRIV_GUARDED_BY(g_mutex);
TraceHolder g_traces LOCPRIV_GUARDED_BY(g_mutex) = TraceHolder::kDataset;

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
  LOCPRIV_EXPECT(g_traces != TraceHolder::kAnalyzer);
  g_traces = TraceHolder::kReader;
  return dataset_locked();
}

CorpusTruth shared_truth() {
  util::MutexLock lock(g_mutex);
  return CorpusTruth(dataset_locked());
}

const PrivacyAnalyzer& shared_analyzer() {
  util::MutexLock lock(g_mutex);
  if (!g_analyzer) {
    // Taking the traces would empty the `users` a shared_dataset() reader
    // holds.
    LOCPRIV_EXPECT(g_traces != TraceHolder::kReader);
    g_analyzer.emplace(experiment_analyzer_config(),
                       std::move(dataset_locked().users));
    g_traces = TraceHolder::kAnalyzer;
  }
  return *g_analyzer;
}

}  // namespace locpriv::core
