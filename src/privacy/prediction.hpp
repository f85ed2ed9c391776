// Next-place prediction from collected movement patterns.
//
// The paper's core claim is that the movement-pattern histogram captures a
// user's *habituation*. The sharpest consequence: an adversary who has the
// histogram can predict where the user goes next. This module turns a
// pattern-2 histogram into a first-order Markov predictor and measures its
// accuracy on held-out movement, quantifying how actionable the leaked
// habits are.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "privacy/pattern_histogram.hpp"

namespace locpriv::privacy {

/// First-order Markov next-region predictor trained from a movement
/// histogram (keys = packed region transitions, values = counts).
class NextPlacePredictor {
 public:
  /// Trains from a movement histogram. An empty histogram yields a
  /// predictor that never predicts.
  explicit NextPlacePredictor(const PatternHistogram& movements);

  /// Most likely next region after `from` (ties broken by region id), or
  /// false if `from` was never seen as a source.
  bool predict(RegionId from, RegionId& next) const;

 private:
  // source -> (destination -> count).
  std::map<RegionId, std::map<RegionId, double>> by_source_;
};

/// Accuracy of a predictor on a held-out region sequence: for every
/// consecutive pair, does predict(seq[i]) equal seq[i+1]?
struct PredictionScore {
  std::size_t evaluated = 0;  ///< Pairs with a prediction available.
  std::size_t correct = 0;
  std::size_t skipped = 0;    ///< Pairs whose source was never trained.

  double accuracy() const {
    return evaluated == 0 ? 0.0
                          : static_cast<double>(correct) / static_cast<double>(evaluated);
  }
};

PredictionScore score_predictions(const NextPlacePredictor& predictor,
                                  const std::vector<RegionId>& held_out_sequence);

}  // namespace locpriv::privacy
