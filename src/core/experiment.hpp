// Shared experiment plumbing for the bench binaries: the canonical access-
// interval ladder, a process-wide lazily built dataset + analyzer (several
// benches sweep the same corpus; generating it once keeps the full bench
// suite fast), and the standard seeds printed in every bench header.
#pragma once

#include <cstdint>
#include <vector>

#include "core/analyzer.hpp"
#include "mobility/synthesis.hpp"

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

/// Process-wide dataset (generated on first use), for a process that reads
/// the traces themselves and never builds shared_analyzer(). The process
/// holds the traces once, so the two exclude each other: this throws
/// ContractViolation once the analyzer has taken the traces, and
/// shared_analyzer() throws it once this has handed them out. Beside the
/// analyzer, read the traces through reference(u).points and everything
/// else through shared_truth().
const mobility::SyntheticDataset& shared_dataset();

/// The generator's truth about the shared corpus: every field of
/// shared_dataset() except the traces. It never exposes `users`, so it
/// stays valid beside shared_analyzer().
class CorpusTruth {
 public:
  explicit CorpusTruth(const mobility::SyntheticDataset& dataset)
      : dataset_(&dataset) {}

  const mobility::CityConfig& city_config() const { return dataset_->city_config; }
  const std::vector<mobility::UserProfile>& profiles() const {
    return dataset_->profiles;
  }
  const std::vector<mobility::UserGroundTruth>& ground_truths() const {
    return dataset_->ground_truths;
  }
  const geo::LatLon& poi_position(int id) const { return dataset_->poi_position(id); }

 private:
  const mobility::SyntheticDataset* dataset_;
};

/// The shared corpus's truth (generating the dataset on first use).
CorpusTruth shared_truth();

/// Process-wide analyzer over shared_dataset()'s traces (built on first
/// use). It takes the traces, so the process holds them once.
const PrivacyAnalyzer& shared_analyzer();

}  // namespace locpriv::core
