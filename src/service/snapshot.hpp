// Shard snapshot codec. A snapshot is the complete per-user state of one
// shard at a submit-sequence watermark: for each user, the number of fixes
// it received and the poi::StayPointStream they were pushed through, whose
// state is the entry/exit window (at most window_fixes fixes), the open
// stay's sums and the closed stays. Its size grows with the stays a user
// makes, not with the fixes it sends. Format v3: a text header line
// "locprivd-snapshot v3 checksum <fnv1a hex>", then a body of harness frames
// (service/wire.hpp):
//   {shard, seq, last_seq, params}            params: 24 bytes, {f64
//                                             radius_m, i64 min_visit_s,
//                                             u64 window_fixes}
//   {user, fixes, window, open, stays}        one per user, in user order
// where `window` is packed fix records as in submit frames, `open` is one
// 48-byte record {u64 inside, i64 enter_s, f64 lat_sum, f64 lon_sum, u64
// count, i64 last_s}, and `stays` is packed 40-byte poi::StayPoint records
// {f64 lat, f64 lon, i64 enter_s, i64 exit_s, u64 fix_count}, all
// little-endian (a user's frame stays under the decoder's 64 MiB cap up to
// 1.6 M closed stays). Doubles travel as their bits, so a restored stream
// continues bit for bit and a restored shard's metrics match an
// uninterrupted one's. Files are published through AtomicFileWriter, so a
// crash mid-write leaves the previous complete version; the checksum
// catches stale or hand-edited files, and every parse failure, a stream
// state no pushes could have left included, is Error(kResume) so the caller
// can fall back or refuse loudly. There is one version: an older file is
// "bad magic".
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "poi/staypoint.hpp"

namespace locpriv::service {

/// One user's collected fixes: how many arrived, and the stay-point stream
/// they were pushed through.
struct UserStays {
  explicit UserStays(const poi::ExtractionParams& params) : stream(params) {}

  std::uint64_t fixes = 0;
  poi::StayPointStream stream;
};

struct ShardSnapshot {
  unsigned shard = 0;          ///< Owning shard index.
  std::uint64_t seq = 0;       ///< Snapshot sequence number (1-based).
  std::uint64_t last_seq = 0;  ///< Highest applied submit-batch sequence.
  /// The parameters every user's stream extracts under.
  poi::ExtractionParams params;
  /// Per-user state, keyed by user id (std::map: serialization order must
  /// be deterministic).
  std::map<std::string, UserStays> users;

  /// The fixes the snapshot stands for, summed over its users.
  std::size_t fix_count() const;
};

/// Exact-round-trip text for a coordinate ("%a" hexfloat). The service no
/// longer uses it; it stays while perfbench's serve_audit still times the
/// old text submit frames with it.
std::string format_coord(double value);

/// Serializes a snapshot, checksum header included.
std::string encode_snapshot(const ShardSnapshot& snapshot);

/// Checksum of an encoded snapshot's body, as recorded in the run ledger.
std::string snapshot_checksum(const std::string& encoded);

/// Parses an encoded snapshot. Throws Error(kResume) on a bad header,
/// checksum mismatch, or malformed or truncated frame — a snapshot either
/// loads exactly or not at all.
ShardSnapshot parse_snapshot(const std::string& encoded);

/// Reads and parses a snapshot file. Throws Error(kResume) when the file is
/// missing, unreadable, or fails parse_snapshot().
ShardSnapshot load_snapshot(const std::string& path);

/// Whether the snapshot a "<shard>/snap/<seq>" ledger record vouches for
/// will load: the file (record field 0) is readable through FileOps, its
/// content checksum equals record field 4, it parses, and its seq and (when
/// given) shard match. Returns why not, or "" when it loads.
std::string check_journaled_snapshot(const std::vector<std::string>& record,
                                     std::optional<unsigned> shard,
                                     std::uint64_t seq);

}  // namespace locpriv::service
