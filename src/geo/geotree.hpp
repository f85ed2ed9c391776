// Hierarchical geohash spatial index.
//
// Every spatial hot path in the pipeline — PoI cluster assignment, PoI
// recovery matching, region containment, adversary candidate-fix lookup —
// used to scan whole point containers linearly. GeoTree replaces those
// scans with O(log n + k) queries over a geohash prefix ordering:
//
//   * Points are encoded into 52-bit interleaved (Morton / Z-order)
//     lat/lon cell codes at `kGeohashMaxLevel` and kept in one array
//     sorted by (code, original index). A geohash *cell* at level L is a
//     code prefix of 2L bits, and — the property everything below rests
//     on — the points of any cell form one contiguous range of that
//     sorted array, found by binary-search descent. There is no pointer
//     tree to allocate or chase: "descending a level" appends two bits
//     to the prefix and re-narrows the range.
//   * Radius queries cover the query disc with a handful of cells at a
//     radius-matched level, then refine candidates with exact distances
//     (batched via geo::haversine_from, or per-pair equirectangular_m when
//     a caller needs parity with the planar approximation the paper
//     pipeline uses at PoI scales).
//
// Determinism contract: construction order, query results, and result
// ordering depend only on the input coordinates and original indices —
// ties are broken by ascending index, never by address or hash-iteration
// order — so resume byte-identity and isolate-vs-inproc parity hold with
// the index on the hot path. A built tree is read-only: it never changes
// after construction and queries write nothing, so one const instance can be
// shared across threads.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geo/latlon.hpp"

namespace locpriv::geo {

/// Finest cell level: 26 bits per axis (52-bit codes), ~0.3 m of latitude
/// per cell — below GPS noise, so deeper levels would never split anything.
inline constexpr int kGeohashMaxLevel = 26;

/// Full-precision interleaved cell code of a coordinate (level
/// kGeohashMaxLevel). Latitude occupies even bits, longitude odd bits.
std::uint64_t geohash_encode(const LatLon& p);

/// The 2*level-bit prefix of a full-precision code: the cell containing it
/// at `level`. Precondition: 0 <= level <= kGeohashMaxLevel.
std::uint64_t geohash_prefix(std::uint64_t code, int level);

/// Center coordinate of the cell `prefix` at `level` (inverse of encode up
/// to the cell). Precondition: prefix < 2^(2*level).
LatLon geohash_cell_center(std::uint64_t prefix, int level);

/// Interleaves per-axis cell indices into the cell prefix at `level`.
/// Preconditions: lat_bits, lon_bits < 2^level.
std::uint64_t geohash_cell(std::uint64_t lat_bits, std::uint64_t lon_bits, int level);

/// Static geohash-prefix index over a fixed point set.
class GeoTree {
 public:
  /// Which distance refines candidates (and defines the query semantics).
  /// kHaversine wraps longitude across the antimeridian, exactly like
  /// haversine_m; kEquirectangular reproduces equirectangular_m, whose raw
  /// longitude difference does NOT wrap — required for byte-identical
  /// parity with the linear scans it replaces.
  enum class Metric { kHaversine, kEquirectangular };

  /// One query result: the point's index in the constructor vector and its
  /// exact distance from the query center under the query's metric.
  struct Hit {
    std::uint32_t index = 0;
    double distance_m = 0.0;

    friend bool operator==(const Hit&, const Hit&) = default;
  };

  GeoTree() = default;

  /// Indexes `points` (kept by value; indices in results refer to this
  /// vector).
  explicit GeoTree(std::vector<LatLon> points);

  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const LatLon& point(std::uint32_t index) const { return points_[index]; }
  const std::vector<LatLon>& points() const { return points_; }

  /// All points within `radius_m` of `center` (inclusive), sorted by
  /// (distance, index). Preconditions: radius_m >= 0.
  std::vector<Hit> query_radius(const LatLon& center, double radius_m,
                                Metric metric = Metric::kHaversine) const;

  /// True when at least one point lies within `radius_m` of `center`
  /// (inclusive) — the early-exit form of query_radius for existence tests.
  bool any_within(const LatLon& center, double radius_m,
                  Metric metric = Metric::kHaversine) const;

  /// Original indices (ascending) of the points inside the closed lat/lon
  /// rectangle, via a cell-prefix cover at a rectangle-matched level. The
  /// longitude interval does not wrap. Preconditions: lo <= hi per axis.
  std::vector<std::uint32_t> query_rect(double lat_lo_deg, double lat_hi_deg,
                                        double lon_lo_deg, double lon_hi_deg) const;

  /// Half-open range [first, last) of the cell's points in the sorted code
  /// order, via one binary-search descent; its width is the cell's point
  /// count.
  std::pair<std::size_t, std::size_t> cell_range(std::uint64_t prefix, int level) const;

 private:
  // Appends the sorted-range candidates of every level-`level` cell in the
  // inclusive per-axis index rectangle; longitude may wrap (two ranges).
  void collect_cells(std::uint64_t lat_lo, std::uint64_t lat_hi, std::uint64_t lon_lo,
                     std::uint64_t lon_hi, int level,
                     std::vector<std::pair<std::size_t, std::size_t>>& ranges) const;

  // Conservative cell cover of the metric disc (center, radius_m); the
  // chosen level keeps the cover at <= 2 cells per axis.
  std::vector<std::pair<std::size_t, std::size_t>> cover_disc(const LatLon& center,
                                                              double radius_m,
                                                              Metric metric) const;

  std::vector<LatLon> points_;        // original order
  std::vector<std::uint64_t> codes_;  // sorted full-precision codes
  std::vector<std::uint32_t> order_;  // codes_[i] encodes points_[order_[i]]
};

/// Dynamic single-level geohash-cell index over points that move — the
/// incremental companion of GeoTree for consumers that interleave inserts,
/// centroid updates, and radius candidate queries (greedy PoI clustering:
/// the running visit-weighted centroid drifts as stays join). Cells are
/// sized at construction so a radius-`cell_m` disc is covered by a 3x3 cell
/// neighbourhood at mid-latitudes; candidate enumeration recomputes the
/// exact longitude margin per query, so correctness does not depend on the
/// sizing. Query semantics are equirectangular (no longitude wrap), matching
/// the planar distance the clustering pipeline refines with.
class GeoCellIndex {
 public:
  /// `cell_m` is the target cell edge in meters, normally the query radius
  /// the consumer will use. Precondition: cell_m > 0.
  explicit GeoCellIndex(double cell_m);

  /// Indexes point `id` at `p`. Ids are the consumer's (PoI ids); inserting
  /// an id twice is a contract violation — use move().
  void insert(std::uint32_t id, const LatLon& p);

  /// Re-files `id` under its new position (no-op when the cell is unchanged).
  /// Precondition: id was inserted.
  void move(std::uint32_t id, const LatLon& p);

  /// Appends (ascending, deduplicated) every indexed id whose cell
  /// intersects the equirectangular disc — a superset of the ids within
  /// `radius_m`; callers refine with exact distances.
  void candidates_within(const LatLon& center, double radius_m,
                         std::vector<std::uint32_t>& out) const;

  std::size_t size() const { return cell_of_.size(); }

 private:
  int level_;
  // cell prefix -> ascending ids. Hash iteration order never escapes:
  // candidates are sorted before return.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> cells_;
  std::unordered_map<std::uint32_t, std::uint64_t> cell_of_;  // id -> cell
};

}  // namespace locpriv::geo
