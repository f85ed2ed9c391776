// Shard snapshot codec. A snapshot is the complete per-user collected-fix
// state of one shard at a submit-sequence watermark: a text header line
// "locprivd-snapshot v2 checksum <fnv1a hex>", then a body of harness frames
// (service/wire.hpp), {shard, seq, last_seq} and then {user, records} per
// user in user order, records packed as in submit frames (so doubles restore
// bit for bit and a restored shard's metrics match an uninterrupted one's).
// A user past wire::kMaxFrameRecords fixes spans consecutive frames. Files
// are published through AtomicFileWriter, so a crash mid-write leaves the
// previous complete version; the checksum catches stale or hand-edited
// files, and every parse failure is Error(kResume) so the caller can fall
// back or refuse loudly. There is one version: an older file is "bad magic".
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "trace/trajectory.hpp"

namespace locpriv::service {

struct ShardSnapshot {
  unsigned shard = 0;          ///< Owning shard index.
  std::uint64_t seq = 0;       ///< Snapshot sequence number (1-based).
  std::uint64_t last_seq = 0;  ///< Highest applied submit-batch sequence.
  /// Collected fixes per user, keyed by user id (std::map: serialization
  /// order must be deterministic).
  std::map<std::string, std::vector<trace::TracePoint>> users;

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
