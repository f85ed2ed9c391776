// Spatio-Temporal stay-point extraction (the paper's Section IV.B algorithm,
// after Bamis & Savvides, RTSS'10).
//
// Three buffers slide over the fix stream: buf_Entry (the window where the
// user may be entering a place), buf_PoI (all fixes attributed to the stay)
// and buf_Exit (the window where the user may be leaving). Each buffer's
// centroid is the average of its fixes. The user has *entered* a stay when
// the centroid of buf_Entry and the centroid of its trailing half (the
// nascent buf_PoI — the two buffers overlap by half of buf_Entry, as in the
// paper) come closer than the distance threshold; the user has *exited*
// when the centroid of buf_Exit drifts farther than the threshold from the
// centroid of buf_PoI. A completed stay is kept only if it lasted at least
// the visiting-time threshold.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "geo/latlon.hpp"
#include "trace/trajectory.hpp"

namespace locpriv::poi {

/// One extracted stay.
struct StayPoint {
  geo::LatLon centroid;       ///< Mean position of the stay's fixes.
  std::int64_t enter_s = 0;   ///< Time of the first attributed fix.
  std::int64_t exit_s = 0;    ///< Time of the last attributed fix.
  std::size_t fix_count = 0;  ///< Number of fixes attributed to the stay.

  std::int64_t duration_s() const { return exit_s - enter_s; }
};

/// Extraction parameters (paper Table III uses radius 50/100 m and visiting
/// time 10/20/30 min; parameter set 1 — 50 m / 10 min — is the paper's
/// choice for all later experiments).
struct ExtractionParams {
  double radius_m = 50.0;           ///< Centroid distance threshold.
  std::int64_t min_visit_s = 600;   ///< Minimum stay duration to keep.
  /// Entry/exit buffer length in fixes. Four (the minimum) keeps stays
  /// detectable from sparse, heavily decimated traces; the ablation bench
  /// sweeps larger windows.
  std::size_t window_fixes = 4;
};

/// The paper's Table III parameter grid, in order (set ids 1..6).
std::vector<ExtractionParams> table3_parameter_sets();

/// The three-buffer Spatio-Temporal extractor described above, fed one fix
/// at a time. It holds the entry/exit window, the open stay's running sums
/// and the stays closed so far, so a growing prefix of a trace is extracted
/// once rather than once per prefix.
class StayPointStream {
 public:
  /// Preconditions: params.radius_m > 0, params.min_visit_s > 0,
  /// params.window_fixes >= 4 and even.
  explicit StayPointStream(const ExtractionParams& params);

  /// Feeds the next fix; fixes must arrive in time order.
  void push(const trace::TracePoint& point);

  /// The stays extract_stay_points returns for the fixes pushed so far: the
  /// closed stays, plus the open stay as the end of the stream closes it.
  /// Mutates nothing, so pushing may continue afterwards.
  std::vector<StayPoint> peek_close() const;

 private:
  /// The fixes attributed to the open stay: their position sums in
  /// attribution order, their count, and the last one's time.
  struct Attributed {
    double lat_sum = 0.0;
    double lon_sum = 0.0;
    std::size_t count = 0;
    std::int64_t last_s = 0;
    void add(const trace::TracePoint& point);
  };

  const trace::TracePoint& at(std::size_t i) const { return ring_[(head_ + i) & mask_]; }
  void pop_front();
  geo::LatLon centroid_of(std::size_t begin, std::size_t end) const;
  /// The open stay closed after the first `overlap` window fixes join it,
  /// if it lasted min_visit_s. Mutates nothing.
  std::optional<StayPoint> closed_stay(std::size_t overlap) const;

  double radius_m_;
  std::int64_t min_visit_s_;
  std::size_t window_size_;
  std::size_t half_;
  /// Entry window (outside a stay) or exit window (inside one): a ring of
  /// bit_ceil(window_size_ + 1) slots, indexed with a mask.
  std::vector<trace::TracePoint> ring_;
  std::size_t mask_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  bool inside_ = false;
  Attributed stay_;
  std::int64_t enter_s_ = 0;
  std::vector<StayPoint> stays_;
};

/// Extracts stay points from a time-ordered fix stream: every fix through a
/// StayPointStream, then its peek_close(). Preconditions as the stream's.
std::vector<StayPoint> extract_stay_points(const std::vector<trace::TracePoint>& points,
                                           const ExtractionParams& params);

/// Baseline extractor (Zheng et al.'s anchor algorithm): anchor a fix,
/// extend while subsequent fixes stay within `radius_m` of the anchor, keep
/// the span if it lasts `min_visit_s`. Used by the ablation bench to compare
/// against the buffered algorithm (which tolerates centroid drift and GPS
/// noise better).
std::vector<StayPoint> extract_stay_points_anchor(
    const std::vector<trace::TracePoint>& points, const ExtractionParams& params);

}  // namespace locpriv::poi
