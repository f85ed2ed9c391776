// Wire verbs for the locprivd shard pipes. Messages use the harness frame
// codec (core/harness/frame.hpp), the same one the supervisor's result
// pipes use; a shard pipe simply carries a stream of them.
#pragma once

#include "core/harness/frame.hpp"

namespace locpriv::service::wire {

using harness::encode_message;
using harness::FrameDecoder;
using harness::kMaxFieldCount;
using harness::kMaxPayloadBytes;

// Command verbs (parent -> shard). Fields after the verb are positional.
inline constexpr char kCmdRestore[] = "restore";   ///< file, expect_seq
inline constexpr char kCmdSubmit[] = "submit";     ///< seq, user, n, (lat lon ts)*n
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

}  // namespace locpriv::service::wire
