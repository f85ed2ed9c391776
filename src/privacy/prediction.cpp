#include "privacy/prediction.hpp"

namespace locpriv::privacy {

NextPlacePredictor::NextPlacePredictor(const PatternHistogram& movements) {
  for (const auto& [key, count] : movements.counts()) {
    RegionId from = 0;
    RegionId to = 0;
    unpack_transition(key, from, to);
    by_source_[from][to] += count;
  }
}

bool NextPlacePredictor::predict(RegionId from, RegionId& next) const {
  const auto it = by_source_.find(from);
  if (it == by_source_.end()) return false;
  double best_count = -1.0;
  for (const auto& [to, count] : it->second) {
    // Strictly-greater keeps the lowest region id on ties (map order).
    if (count > best_count) {
      best_count = count;
      next = to;
    }
  }
  return true;
}

PredictionScore score_predictions(const NextPlacePredictor& predictor,
                                  const std::vector<RegionId>& held_out_sequence) {
  PredictionScore score;
  for (std::size_t i = 1; i < held_out_sequence.size(); ++i) {
    RegionId predicted = 0;
    if (!predictor.predict(held_out_sequence[i - 1], predicted)) {
      ++score.skipped;
      continue;
    }
    ++score.evaluated;
    if (predicted == held_out_sequence[i]) ++score.correct;
  }
  return score;
}

}  // namespace locpriv::privacy
