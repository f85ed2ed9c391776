// Shared experiment plumbing for the bench binaries and the CLI: the
// canonical access-interval ladder, the experiment corpus (analyzer plus the
// generator's truth), the checked --users/--days corpus of the command-line
// front ends, and the standard seeds printed in every bench header.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/analyzer.hpp"
#include "mobility/synthesis.hpp"
#include "util/args.hpp"

namespace locpriv::core {

/// Canonical seed for the Geolife-like dataset (also the default in
/// mobility::DatasetConfig); printed by every bench for reproducibility.
inline constexpr std::uint64_t kDatasetSeed = 20170605;

/// Canonical seed for the market catalog.
inline constexpr std::uint64_t kCatalogSeed = 20170301;

/// The access-interval ladder swept by Figures 3-5 (seconds between two
/// location requests, from the paper's 1 s to its 7,200 s maximum).
std::vector<std::int64_t> access_interval_ladder();

/// Scale of the shared experiment corpus. The default matches the paper's
/// Geolife corpus (182 users); set LOCPRIV_REDUCED_SCALE=1 for a 60-user,
/// 8-day corpus (same generator, same seed) when iterating.
struct ExperimentScale {
  int user_count = 0;
  int days = 0;
};

/// Reads LOCPRIV_REDUCED_SCALE; full scale = 182 users x 12 days, reduced =
/// 60 users x 8 days.
ExperimentScale experiment_scale();

/// Dataset config at the chosen scale.
mobility::DatasetConfig experiment_dataset_config();

/// Analyzer config used by all paper experiments (Table III set 1,
/// 250 m cells, alpha = 0.05).
AnalyzerConfig experiment_analyzer_config();

/// The generator's truth about a corpus: every field of its
/// SyntheticDataset except the traces, which the analyzer beside it holds.
class CorpusTruth {
 public:
  /// Takes the dataset and drops whatever is left of its `users`.
  explicit CorpusTruth(mobility::SyntheticDataset dataset) : dataset_(std::move(dataset)) {
    dataset_.users.clear();
  }

  const mobility::CityConfig& city_config() const { return dataset_.city_config; }
  const std::vector<mobility::UserProfile>& profiles() const {
    return dataset_.profiles;
  }
  const std::vector<mobility::UserGroundTruth>& ground_truths() const {
    return dataset_.ground_truths;
  }
  const geo::LatLon& poi_position(int id) const { return dataset_.poi_position(id); }

 private:
  mobility::SyntheticDataset dataset_;
};

/// The experiment corpus at experiment_scale(): the analyzer, which holds
/// the traces, and the generator's truth. The process holds the traces once.
struct ExperimentCorpus {
  PrivacyAnalyzer analyzer;
  CorpusTruth truth;
};

/// Generates experiment_dataset_config() and builds the analyzer over it.
ExperimentCorpus experiment_corpus();

/// --interval, the app's polling period in seconds. The collection model
/// starts at 1 s (the app receives every fix), so a smaller value is a
/// usage error rather than a full-rate run labelled with it.
std::int64_t interval_arg(const util::Args& args);

/// The synthetic corpus of --users and --days, generated from `seed`: both
/// at least 1, the user count at most the home sites of the city that seed
/// generates. Checked before anything is generated; Error(kUsage) otherwise.
mobility::DatasetConfig synthetic_corpus(const util::Args& args, std::uint64_t seed);

}  // namespace locpriv::core
