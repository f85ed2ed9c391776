// Trip synthesis: turns a user profile into a Geolife-like GPS trace.
//
// Recording model (mirrors how Geolife loggers behave): the trace covers the
// user's waking day — continuous 1-5 s fixes while moving, and periodic
// short bursts of fixes while dwelling at a place (so stays are visible to
// stay-point extraction while the inter-fix interval distribution stays
// dominated by 1-5 s gaps, matching the dataset's reported ~91 %).
#pragma once

#include <cstdint>
#include <vector>

#include "mobility/city.hpp"
#include "mobility/profile.hpp"
#include "trace/trajectory.hpp"

namespace locpriv::mobility {

/// Trip/trace synthesis parameters.
struct SynthesisConfig {
  int days = 12;                      ///< Simulated days per user.
  std::int64_t start_unix_s = 1212278400;  ///< 2008-06-01, inside Geolife's span.
  double gps_noise_sigma_m = 4.0;     ///< Per-fix Gaussian position error.
  int move_sample_min_s = 2;          ///< Fix spacing while moving (uniform).
  int move_sample_max_s = 4;
  int dwell_burst_gap_min_s = 180;    ///< Gap between fix bursts while dwelling.
  int dwell_burst_gap_max_s = 300;
  int dwell_burst_fixes = 8;          ///< Fixes per dwell burst, ~2 s apart.
  double dwell_wander_sigma_m = 8.0;  ///< Indoor position wander during a stay.
};

/// Output of simulating one user.
struct SimulatedUser {
  trace::UserTrace trace;        ///< One session per simulated day.
  UserGroundTruth ground_truth;  ///< True visits behind the trace.
};

/// Simulates `config.days` days of movement for `profile`.
SimulatedUser simulate_user(const CityModel& city, const UserProfile& profile,
                            const SynthesisConfig& config, stats::Rng& rng);

/// Full synthetic dataset: the shared city, each user's profile, trace and
/// ground truth.
struct SyntheticDataset {
  CityConfig city_config;
  std::vector<PoiSite> poi_sites;  ///< The city's PoI pool (id-indexed).
  std::vector<UserProfile> profiles;
  std::vector<trace::UserTrace> users;
  std::vector<UserGroundTruth> ground_truths;

  /// Position of a city PoI by id. Precondition: valid id.
  const geo::LatLon& poi_position(int id) const;
};

/// Dataset generation parameters. Defaults approximate the Geolife corpus
/// the paper uses: 182 users, high-frequency sampling, multi-week span.
struct DatasetConfig {
  std::uint64_t seed = 20170605;  ///< ICDCS'17 — printed by every bench.
  int user_count = 182;
  /// Users sharing one home building. 1 (default) gives every user a
  /// distinct home; larger values model co-located populations (dorms,
  /// campus housing — much of the real Geolife cohort), which enlarges
  /// pattern-1 anonymity sets and stresses identification.
  int users_per_home = 1;
  CityConfig city;       ///< city.poi_count must allow the needed homes.
  ProfileConfig profile;
  SynthesisConfig synthesis;

  DatasetConfig() { city.poi_count = 700; }
};

/// The most users generate_dataset(config) can place: the kHome sites of
/// the city that `config.seed` and `config.city` generate, times
/// users_per_home. The city is seeded, so no constant bound is right.
std::int64_t max_user_count(const DatasetConfig& config);

/// Generates the whole dataset deterministically from `config.seed`.
/// Throws ContractViolation if the city has fewer kHome sites than users.
SyntheticDataset generate_dataset(const DatasetConfig& config);

}  // namespace locpriv::mobility
