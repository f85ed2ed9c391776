#include "mobility/synthesis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "geo/geodesy.hpp"
#include "util/expect.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace locpriv::mobility {

namespace {

constexpr std::int64_t kSecondsPerDay = 86400;

// Travel speed in m/s by trip length: walk, e-bike, car/bus.
double travel_speed_mps(double distance_m, stats::Rng& rng) {
  if (distance_m < 1500.0) return rng.uniform(1.2, 1.6);
  if (distance_m < 5000.0) return rng.uniform(3.5, 5.5);
  return rng.uniform(7.0, 11.0);
}

// True for Saturday/Sunday given a Unix timestamp (epoch was a Thursday).
bool is_weekend(std::int64_t unix_s) {
  const std::int64_t day_index = unix_s / kSecondsPerDay;
  const int weekday = static_cast<int>((day_index + 4) % 7);  // 0 = Sunday.
  return weekday == 0 || weekday == 6;
}

// Applies GPS noise to a true position.
geo::LatLon noisy(const geo::LatLon& position, double sigma_m, stats::Rng& rng) {
  if (sigma_m <= 0.0) return position;
  const double east = rng.normal(0.0, sigma_m);
  const double north = rng.normal(0.0, sigma_m);
  const double distance = std::sqrt(east * east + north * north);
  if (distance == 0.0) return position;
  return geo::destination(position, geo::rad_to_deg(std::atan2(east, north)), distance);
}

// Emits fixes along `route` starting at `time_s`; returns the arrival time.
std::int64_t emit_travel(const std::vector<geo::LatLon>& route, std::int64_t time_s,
                         const SynthesisConfig& config, stats::Rng& rng,
                         trace::UserTrace& out) {
  const double total_m = geo::polyline_length_m(route);
  if (total_m <= 0.0 || route.size() < 2) return time_s;
  const double speed = travel_speed_mps(total_m, rng);

  // Precompute cumulative segment lengths for interpolation.
  std::vector<double> cumulative(route.size(), 0.0);
  for (std::size_t i = 1; i < route.size(); ++i)
    cumulative[i] = cumulative[i - 1] + geo::haversine_m(route[i - 1], route[i]);

  double traveled = 0.0;
  std::int64_t now = time_s;
  std::size_t segment = 1;
  while (traveled < total_m) {
    const auto step_s = rng.uniform_int(config.move_sample_min_s, config.move_sample_max_s);
    now += step_s;
    traveled = std::min(total_m, traveled + speed * static_cast<double>(step_s));
    while (segment + 1 < route.size() && cumulative[segment] < traveled) ++segment;
    const double seg_len = cumulative[segment] - cumulative[segment - 1];
    const double within = seg_len <= 0.0
                              ? 0.0
                              : (traveled - cumulative[segment - 1]) / seg_len;
    const double bearing = geo::bearing_deg(route[segment - 1], route[segment]);
    const geo::LatLon position =
        geo::destination(route[segment - 1], bearing, within * seg_len);
    out.append({noisy(position, config.gps_noise_sigma_m, rng), now});
  }
  return now;
}

// Emits burst fixes at a dwell location from `enter_s` to `exit_s`.
void emit_dwell(const geo::LatLon& site, std::int64_t enter_s, std::int64_t exit_s,
                const SynthesisConfig& config, stats::Rng& rng, trace::UserTrace& out) {
  std::int64_t now = enter_s;
  while (now < exit_s) {
    // One burst of closely spaced fixes.
    for (int i = 0; i < config.dwell_burst_fixes && now < exit_s; ++i) {
      out.append({noisy(site, config.dwell_wander_sigma_m, rng), now});
      now += rng.uniform_int(1, 3);
    }
    now += rng.uniform_int(config.dwell_burst_gap_min_s, config.dwell_burst_gap_max_s);
  }
}

// Draws the dwell duration for one stay at profile place `index`.
std::int64_t draw_dwell_s(const CityModel& city, const UserProfile& profile,
                          std::size_t index, stats::Rng& rng) {
  const DwellModel model = dwell_model(city.poi(profile.poi_ids[index]).category);
  const double dwell =
      profile.mean_dwell_s[index] * std::exp(rng.normal(0.0, model.sigma_log_s));
  // Clamp: at least 6 minutes (so most stays clear the 10-minute extraction
  // threshold only when genuinely typical), at most 5 hours.
  return std::clamp<std::int64_t>(static_cast<std::int64_t>(dwell), 360, 5 * 3600);
}

/// The dataset's city, built from the first fork of the seed's generator:
/// max_user_count counts the homes of the city generate_dataset populates.
CityModel dataset_city(const DatasetConfig& config, stats::Rng& root) {
  stats::Rng city_rng = root.fork();
  return CityModel(config.city, city_rng);
}

}  // namespace

SimulatedUser simulate_user(const CityModel& city, const UserProfile& profile,
                            const SynthesisConfig& config, stats::Rng& rng) {
  LOCPRIV_EXPECT(config.days > 0);
  LOCPRIV_EXPECT(config.move_sample_min_s >= 1);
  LOCPRIV_EXPECT(config.move_sample_max_s >= config.move_sample_min_s);
  LOCPRIV_EXPECT(config.dwell_burst_gap_min_s >= 1);
  LOCPRIV_EXPECT(config.dwell_burst_gap_max_s >= config.dwell_burst_gap_min_s);

  SimulatedUser result;
  result.trace.user_id = profile.user_id;
  result.ground_truth.user_id = profile.user_id;
  result.ground_truth.poi_ids = profile.poi_ids;

  for (int day = 0; day < config.days; ++day) {
    const std::int64_t day_base = config.start_unix_s + day * kSecondsPerDay;
    const bool weekend = is_weekend(day_base);
    const auto& transition =
        weekend ? profile.weekend_transition : profile.weekday_transition;

    // One recording session per day; a day that records no fix adds none.
    result.trace.begin_session();
    std::size_t at = 0;  // Index into profile.poi_ids; day starts at home.
    // Logger turns on shortly before the first departure.
    std::int64_t now = day_base + rng.uniform_int(6 * 3600 + 1800, 8 * 3600);
    const std::int64_t day_end = day_base + rng.uniform_int(20 * 3600, 22 * 3600);

    // Morning stay at home: ~12-20 recorded minutes before leaving.
    {
      const std::int64_t leave = now + rng.uniform_int(12 * 60, 20 * 60);
      emit_dwell(city.poi(profile.poi_ids[at]).position, now, leave, config, rng,
                 result.trace);
      result.ground_truth.visits.push_back({profile.poi_ids[at], now, leave});
      now = leave;
    }

    while (now < day_end) {
      // Next place by habit; force a return home at the end of the day.
      std::size_t next = rng.weighted_index(transition[at]);
      std::int64_t dwell = draw_dwell_s(city, profile, next, rng);
      if (now + dwell > day_end) {
        next = 0;  // Go home.
        if (next == at) break;
        dwell = rng.uniform_int(12 * 60, 20 * 60);  // Recorded tail at home.
      }
      const auto route = city.plan_route(city.poi(profile.poi_ids[at]).position,
                                         city.poi(profile.poi_ids[next]).position, rng);
      now = emit_travel(route, now, config, rng, result.trace);
      const std::int64_t exit = now + dwell;
      emit_dwell(city.poi(profile.poi_ids[next]).position, now, exit, config, rng,
                 result.trace);
      result.ground_truth.visits.push_back({profile.poi_ids[next], now, exit});
      now = exit;
      at = next;
      if (next == 0 && now >= day_end - 1800) break;  // Home for the night.
    }
  }
  return result;
}

const geo::LatLon& SyntheticDataset::poi_position(int id) const {
  LOCPRIV_EXPECT(id >= 0 && static_cast<std::size_t>(id) < poi_sites.size());
  return poi_sites[static_cast<std::size_t>(id)].position;
}

std::int64_t max_user_count(const DatasetConfig& config) {
  LOCPRIV_EXPECT(config.users_per_home >= 1);
  stats::Rng root(config.seed);
  const CityModel city = dataset_city(config, root);
  return static_cast<std::int64_t>(city.pois_of_category(PoiCategory::kHome).size()) *
         config.users_per_home;
}

SyntheticDataset generate_dataset(const DatasetConfig& config) {
  LOCPRIV_EXPECT(config.user_count > 0);
  stats::Rng root(config.seed);
  const CityModel city = dataset_city(config, root);

  LOCPRIV_EXPECT(config.users_per_home >= 1);
  auto homes = city.pois_of_category(PoiCategory::kHome);
  const int homes_needed =
      (config.user_count + config.users_per_home - 1) / config.users_per_home;
  LOCPRIV_EXPECT(static_cast<int>(homes.size()) >= homes_needed);
  stats::Rng shuffle_rng = root.fork();
  shuffle_rng.shuffle(homes);

  SyntheticDataset dataset;
  dataset.city_config = config.city;
  dataset.poi_sites = city.pois();
  const auto user_count = static_cast<std::size_t>(config.user_count);
  dataset.profiles.resize(user_count);
  dataset.users.resize(user_count);
  dataset.ground_truths.resize(user_count);

  // Fork one generator per user sequentially (the fork order defines the
  // corpus), then simulate users in parallel into their slots.
  std::vector<stats::Rng> user_rngs;
  user_rngs.reserve(user_count);
  for (std::size_t i = 0; i < user_count; ++i) user_rngs.push_back(root.fork());

  util::parallel_for(user_count, [&](std::size_t i) {
    char id[16];
    std::snprintf(id, sizeof(id), "%03zu", i);
    const std::size_t home_index = i / static_cast<std::size_t>(config.users_per_home);
    // A local copy: neighbouring generators share a cache line, and the
    // loop runs neighbouring users on different threads at the same time.
    stats::Rng rng = user_rngs[i];
    UserProfile profile =
        build_user_profile(city, id, homes[home_index], config.profile, rng);
    SimulatedUser simulated = simulate_user(city, profile, config.synthesis, rng);
    dataset.profiles[i] = std::move(profile);
    dataset.users[i] = std::move(simulated.trace);
    dataset.ground_truths[i] = std::move(simulated.ground_truth);
  });
  LOCPRIV_LOG(kInfo, "mobility") << "generated dataset: " << dataset.users.size()
                                 << " users, seed=" << config.seed;
  return dataset;
}

}  // namespace locpriv::mobility
