// Privacy-vs-utility evaluation of LPPM defenses against the paper's
// background-app threat: apply a defense to the stream a fast background
// app would collect, score the released stream with the analyzer's own
// attack (PrivacyAnalyzer::evaluate_collected: PoI extraction, His_bin,
// identification, Deg_anonymity), and score utility as the positional
// error and volume the defended release still offers the app.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "lppm/defense.hpp"

namespace locpriv::core {

/// Aggregate outcome of one defense across all users of an analyzer.
struct DefenseOutcome {
  std::string defense;
  std::int64_t interval_s = 0;

  // Privacy axes (lower = better defense).
  double poi_total_fraction = 0.0;      ///< Reference PoIs still recovered.
  double poi_sensitive_fraction = 0.0;  ///< Sensitive (<=3 visits) PoIs recovered.
  int users_identified = 0;             ///< Unique pattern-2 identifications.
  double mean_anonymity = 0.0;          ///< Mean Deg_anonymity (1 = hidden).

  // Utility axes (lower error / higher ratio = better for the app).
  double mean_position_error_m = 0.0;   ///< Error of released vs true fixes.
  double release_ratio = 0.0;           ///< Fixes released / fixes requested.
};

/// Evaluates `defense` against every user at the given app interval.
/// `seed` drives any randomness inside the defense.
DefenseOutcome evaluate_defense(const PrivacyAnalyzer& analyzer,
                                const lppm::Defense& defense,
                                std::int64_t interval_s, std::uint64_t seed);

}  // namespace locpriv::core
