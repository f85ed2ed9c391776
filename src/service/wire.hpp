// Wire format for the locprivd shard pipes and shard snapshots: the harness
// frame codec (core/harness/frame.hpp) that the supervisor's result pipes
// also use. A shard pipe carries a stream of frames; a snapshot body
// (service/snapshot.hpp) is a run of them on disk. A fix has one encoding
// everywhere, owned by pack_fixes/unpack_fixes: a field of packed 24-byte
// records {f64 lat, f64 lon, i64 ts}, trace::TracePoint's own layout in
// little-endian order. Frames persist on disk, so the host must be
// little-endian; that is asserted below.
#pragma once

#include <bit>
#include <cstddef>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/harness/error.hpp"
#include "core/harness/frame.hpp"
#include "trace/trajectory.hpp"
#include "util/strings.hpp"

namespace locpriv::service::wire {

using harness::encode_message;
using harness::FrameDecoder;
using harness::kMaxFieldCount;
using harness::kMaxPayloadBytes;

// Command verbs (parent -> shard). Fields after the verb are positional.
inline constexpr char kCmdRestore[] = "restore";   ///< file, expect_seq
inline constexpr char kCmdSubmit[] = "submit";     ///< seq, user, records
inline constexpr char kCmdPing[] = "ping";         ///< token
inline constexpr char kCmdSnapshot[] = "snapshot"; ///< snap_seq, file
inline constexpr char kCmdReport[] = "report";     ///< token
inline constexpr char kCmdDrain[] = "drain";       ///< snap_seq, file

// Response verbs (shard -> parent).
inline constexpr char kRspRestored[] = "restored"; ///< last_seq, fixes, status
inline constexpr char kRspAck[] = "ack";           ///< seq, applied (1) / deduped (0)
inline constexpr char kRspPong[] = "pong";         ///< token, ingested, state_bytes
inline constexpr char kRspSnapped[] = "snapped";   ///< snap_seq, last_seq, users, fixes, checksum
inline constexpr char kRspReports[] = "reports";   ///< token, rows, cols, fields...
inline constexpr char kRspDrained[] = "drained";   ///< snap_seq, last_seq, users, fixes, checksum
/// A snapshot/drain publish failed in the child (ENOSPC, EIO). The shard
/// stays alive and authoritative in memory; the parent sheds the snapshot
/// and enters storage-degraded mode for that shard.
inline constexpr char kRspSnapfail[] = "snapfail"; ///< snap_seq, error

/// Bytes of one packed fix record.
inline constexpr std::size_t kFixRecordBytes = 24;
/// Records in one snapshot user frame: 24 MiB, well under kMaxPayloadBytes.
/// A user with more fixes spans consecutive frames.
inline constexpr std::size_t kMaxFrameRecords = std::size_t{1} << 20;

static_assert(std::endian::native == std::endian::little &&
                  std::is_trivially_copyable_v<trace::TracePoint> &&
                  sizeof(trace::TracePoint) == kFixRecordBytes &&
                  offsetof(trace::TracePoint, position) == 0 &&
                  offsetof(geo::LatLon, lon_deg) == 8 &&
                  offsetof(trace::TracePoint, timestamp_s) == 16,
              "a fix record is a TracePoint's bytes, little-endian");

/// The packed records of `fixes`, bit-exact (NaN payloads, -0.0, infinities).
inline std::string pack_fixes(std::span<const trace::TracePoint> fixes) {
  return std::string(reinterpret_cast<const char*>(fixes.data()),
                     fixes.size_bytes());
}

/// Appends the records packed in `field` to `fixes`. The record count comes
/// from the field's size; a field that is not a whole number of records is
/// rejected (false) and appends nothing. Growth goes through resize(), so a
/// user fed batch by batch reallocates geometrically, not once per batch.
inline bool unpack_fixes(std::string_view field,
                         std::vector<trace::TracePoint>& fixes) {
  if (field.size() % kFixRecordBytes != 0) return false;
  if (field.empty()) return true;
  const std::size_t old_size = fixes.size();
  fixes.resize(old_size + field.size() / kFixRecordBytes);
  std::memcpy(fixes.data() + old_size, field.data(), field.size());
  return true;
}

/// A non-negative decimal integer field (seq, token, count): util::parse_int64
/// plus a sign check. nullopt for anything else.
inline std::optional<std::uint64_t> parse_u64(std::string_view text) {
  long long value = 0;
  if (!util::parse_int64(text, value) || value < 0) return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

/// parse_u64 for a field the service itself wrote (a shard pipe frame, a
/// CRC-checked ledger record): anything else is a bug, Error(kInternal).
inline std::uint64_t field_u64(const std::string& field) {
  const std::optional<std::uint64_t> value = parse_u64(field);
  if (!value)
    throw Error(ErrorCode::kInternal, "bad integer field '" + field + "'");
  return *value;
}

}  // namespace locpriv::service::wire
