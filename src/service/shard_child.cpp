#include "service/shard_child.hpp"

#include <unistd.h>

#include <cerrno>
#include <map>
#include <string>
#include <vector>

#include "core/harness/atomic_file.hpp"
#include "core/harness/child_process.hpp"
#include "core/harness/error.hpp"
#include "service/driver.hpp"
#include "service/snapshot.hpp"

namespace locpriv::service {

namespace {

void respond(int fd, const std::vector<std::string>& fields) {
  if (!harness::write_all(fd, wire::encode_message(fields)))
    throw Error(ErrorCode::kIo, "response pipe closed" + errno_detail());
}

/// The shard's in-memory state plus the handlers the command loop calls.
struct ShardState {
  const ShardChildConfig& config;
  const core::PrivacyAnalyzer& analyzer;
  const ServiceOptions& options;

  /// Per-user fixes and the highest applied submit-batch sequence, held in
  /// snapshot form so a snapshot encodes them in place.
  ShardSnapshot held;
  std::map<std::string, std::size_t> index_of;  ///< user id -> analyzer index.
  std::uint64_t ingested = 0;   ///< Fixes applied this lifetime of state.
  int batches_this_incarnation = 0;

  ShardState(const ShardChildConfig& config,
             const core::PrivacyAnalyzer& analyzer,
             const ServiceOptions& options)
      : config(config), analyzer(analyzer), options(options) {
    for (std::size_t i = 0; i < analyzer.user_count(); ++i)
      index_of.emplace(analyzer.reference(i).user_id, i);
  }

  std::size_t state_bytes() const {
    std::size_t bytes = 0;
    for (const auto& [user, fixes] : held.users)
      bytes += user.size() + 64 + fixes.capacity() * sizeof(trace::TracePoint);
    return bytes;
  }

  void handle_restore(const std::vector<std::string>& cmd) {
    try {
      ShardSnapshot snapshot = load_snapshot(cmd[1]);
      const std::uint64_t expect_seq = wire::field_u64(cmd[2]);
      if (snapshot.shard != config.shard || snapshot.seq != expect_seq)
        throw Error(ErrorCode::kResume,
                    "snapshot identity mismatch: file is shard " +
                        std::to_string(snapshot.shard) + " seq " +
                        std::to_string(snapshot.seq));
      held = std::move(snapshot);
      ingested = held.fix_count();
      respond(config.resp_fd,
              {wire::kRspRestored, std::to_string(held.last_seq),
               std::to_string(ingested), "ok"});
    } catch (const Error& e) {
      respond(config.resp_fd, {wire::kRspRestored, "0", "0", e.what()});
    }
  }

  void handle_submit(const std::vector<std::string>& cmd) {
    if (cmd.size() != 4)
      throw Error(ErrorCode::kInternal,
                  "submit frame is not {submit, seq, user, records}");
    const std::uint64_t seq = wire::field_u64(cmd[1]);
    if (seq <= held.last_seq) {
      // Replayed batch already in a snapshot. Still acked: the parent's
      // credit window counts every consumed frame, applied or deduped.
      respond(config.resp_fd, {wire::kRspAck, cmd[1], "0"});
      return;
    }
    ++batches_this_incarnation;
    if (options.fault_plan.fault_for(config.name, config.incarnation) !=
            nullptr &&
        batches_this_incarnation == options.fault_after_batches) {
      // Fires *before* the batch is applied: the parent retains it, so the
      // respawned incarnation replays it and no fix is lost.
      options.fault_plan.trigger(config.name, config.incarnation);
    }
    if (!wire::unpack_fixes(cmd[3], held.users[cmd[2]]))
      throw Error(ErrorCode::kInternal,
                  "submit records of " + std::to_string(cmd[3].size()) +
                      " bytes are not a whole number of fixes");
    held.last_seq = seq;
    ingested += cmd[3].size() / wire::kFixRecordBytes;
    // The ack is the flow-control credit: it is sent only after the batch
    // is applied, so a crash loses at most the unacked in-flight window and
    // the parent's retained replay covers exactly that suffix.
    respond(config.resp_fd, {wire::kRspAck, cmd[1], "1"});
  }

  bool write_snapshot(const std::vector<std::string>& cmd, const char* verb) {
    const std::uint64_t snap_seq = wire::field_u64(cmd[1]);
    const std::string& path = cmd[2];
    held.shard = config.shard;
    held.seq = snap_seq;
    const std::string encoded = encode_snapshot(held);
    try {
      harness::AtomicFileWriter writer(path);
      writer.stream() << encoded;
      writer.commit();
    } catch (const Error& e) {
      // Report the failure instead of dying: the in-memory state is still
      // authoritative and AtomicFileWriter left the previous snapshot
      // intact. The parent sheds the snapshot, keeps the retained suffix,
      // and retries later (disk-full degraded mode).
      respond(config.resp_fd,
              {wire::kRspSnapfail, std::to_string(snap_seq), e.what()});
      return false;
    }
    respond(config.resp_fd,
            {verb, std::to_string(snap_seq), std::to_string(held.last_seq),
             std::to_string(held.users.size()),
             std::to_string(held.fix_count()), snapshot_checksum(encoded)});
    return true;
  }

  void handle_report(const std::vector<std::string>& cmd) {
    std::vector<std::string> out = {wire::kRspReports, cmd[1], "", ""};
    std::size_t rows = 0;
    std::size_t cols = 0;
    for (std::size_t i = 0; i < analyzer.user_count(); ++i) {
      const std::string& user_id = analyzer.reference(i).user_id;
      const auto it = held.users.find(user_id);
      if (it == held.users.end()) continue;
      const core::ExposureReport report =
          analyzer.evaluate_collected(i, options.interval_s, it->second);
      const std::vector<std::string> fields =
          exposure_fields(user_id, options.interval_s, report);
      cols = fields.size();
      out.insert(out.end(), fields.begin(), fields.end());
      ++rows;
    }
    out[2] = std::to_string(rows);
    out[3] = std::to_string(cols);
    respond(config.resp_fd, out);
  }
};

}  // namespace

int shard_child_main(const ShardChildConfig& config,
                     const core::PrivacyAnalyzer& analyzer,
                     const ServiceOptions& options) {
  ShardState state(config, analyzer, options);
  wire::FrameDecoder decoder;
  std::vector<std::string> cmd;
  char chunk[4096];
  for (;;) {
    while (decoder.next(cmd)) {
      if (cmd.empty()) continue;
      const std::string& verb = cmd[0];
      if (verb == wire::kCmdSubmit) {
        state.handle_submit(cmd);
      } else if (verb == wire::kCmdPing) {
        respond(config.resp_fd,
                {wire::kRspPong, cmd[1], std::to_string(state.ingested),
                 std::to_string(state.state_bytes())});
      } else if (verb == wire::kCmdRestore) {
        state.handle_restore(cmd);
      } else if (verb == wire::kCmdSnapshot) {
        state.write_snapshot(cmd, wire::kRspSnapped);
      } else if (verb == wire::kCmdReport) {
        state.handle_report(cmd);
      } else if (verb == wire::kCmdDrain) {
        // Only exit once the final snapshot actually published; a failed
        // drain keeps the shard alive so the parent can retry (or give up
        // with a taxonomy exit) without losing the in-memory state.
        if (state.write_snapshot(cmd, wire::kRspDrained)) return 0;
      } else {
        throw Error(ErrorCode::kInternal,
                    "shard " + config.name + ": unknown command " + verb);
      }
    }
    if (decoder.corrupt())
      throw Error(ErrorCode::kInternal,
                  "shard " + config.name + ": corrupt command stream");
    const ssize_t n = ::read(config.cmd_fd, chunk, sizeof(chunk));
    if (n > 0) {
      decoder.feed(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return 0;  // EOF: the parent closed the pipe (or died); clean stop.
  }
}

}  // namespace locpriv::service
