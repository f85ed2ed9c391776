// Per-user behavioural profile: which places a user frequents and the
// Markov transition habits between them.
//
// Identifiability in the paper's experiments rests on users having
// *distinct* movement patterns over *overlapping* place sets; the profile
// generator therefore assigns each user a unique home, a workplace shared
// with a few others, and a handful of amenities sampled from the shared city
// pool, then draws an individual transition matrix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mobility/city.hpp"

namespace locpriv::mobility {

/// Profile generation parameters.
struct ProfileConfig {
  int min_amenities = 4;   ///< Non-home/work places in the routine.
  int max_amenities = 8;
  double habit_concentration = 6.0;  ///< Dirichlet-like skew of transitions:
                                     ///< larger -> more idiosyncratic habits.
};

/// A user's behavioural profile.
struct UserProfile {
  std::string user_id;
  std::vector<int> poi_ids;  ///< [0] = home, [1] = work, rest = amenities.
  /// Row-stochastic transition matrix over poi_ids (weekday behaviour):
  /// transition[i][j] = P(next place = poi_ids[j] | at poi_ids[i]).
  std::vector<std::vector<double>> weekday_transition;
  /// Weekend behaviour: leisure categories boosted, work suppressed.
  std::vector<std::vector<double>> weekend_transition;
  /// Mean dwell in seconds at each place in poi_ids.
  std::vector<double> mean_dwell_s;

  int home_poi() const { return poi_ids.front(); }
  int work_poi() const { return poi_ids[1]; }
};

/// Draws a profile for one user. `home_poi` must be a kHome site unique to
/// this user (the dataset generator partitions homes); the rest of the
/// routine is sampled from the city pool.
UserProfile build_user_profile(const CityModel& city, const std::string& user_id,
                               int home_poi, const ProfileConfig& config,
                               stats::Rng& rng);

/// Typical dwell duration parameters for one stay at a site of `category`:
/// lognormal with the returned (mu, sigma) of log-seconds.
struct DwellModel {
  double mu_log_s = 0.0;
  double sigma_log_s = 0.0;
};
DwellModel dwell_model(PoiCategory category);

}  // namespace locpriv::mobility
