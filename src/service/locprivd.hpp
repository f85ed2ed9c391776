// locprivd: the always-on sharded audit service. Users are sharded by id
// hash across fork(2)ed worker processes; the parent is a single-threaded
// event loop that feeds batched fix submissions down length-prefixed pipes,
// supervises shard health with heartbeat pings (SIGTERM -> grace -> SIGKILL
// escalation on a miss), respawns dead shards with deterministic seeded
// backoff, quarantines a shard that flaps past its respawn budget, and
// checkpoints each shard's state with periodic snapshots (AtomicFileWriter
// publish + RunLedger journal), so a respawned shard — or a whole restarted
// service — resumes from its last snapshot with no metric divergence.
//
// Delivery contract: every accepted submit batch carries a per-shard
// sequence number and is retained in the parent until a snapshot covering
// it is journaled. A respawned shard restores the latest journaled snapshot
// and has the retained suffix replayed; the shard applies a batch exactly
// once (sequence-number dedupe), so each user's fix count and stay-point
// stream — and therefore the PoI/pattern/metric pipeline outputs — are
// bit-identical to an unfailing run's. A signal caught by the
// InterruptScope of serve_traffic stops the traffic or the report wait; a
// drain then leaves the run directory resumable (exit 7). A resume under a
// different shard count is refused (exit 6): the user->shard mapping would
// scatter journaled state.
//
// Overload control keeps one rule per job. A per-shard credit window
// (max_inflight_batches unacked batches, max_retained_bytes of replay)
// closes admission: lossless submits block for credit, shed-eligible ones
// are shed at the edge (reject-new). Every encoded batch owes an in-order
// ack within ping_timeout, so a wedged or too-slow shard is found by its
// oldest unacked batch and sent down SIGTERM -> grace -> SIGKILL. The replay
// a death costs is bounded by the cadence snapshot plus a forced snapshot
// at the byte cap. The turnaround EWMA (ShardLoad::ewma_ms) is a gauge.
//
// Storage-degraded mode: when a shard's snapshot publish fails (ENOSPC,
// EIO), the shard stays alive and the parent sheds the snapshot — journaled
// once per episode as `<shard>/snapdrop/<n>` — keeps serving from memory
// under the retained-byte caps, and retries on the snapshot cadence; the
// first successful publish re-arms normal operation. Only a drain whose
// final snapshot keeps failing gives up, with the taxonomy's exit 4 (kIo).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/harness/run_ledger.hpp"
#include "service/wire.hpp"
#include "sim/faults/process_plan.hpp"

namespace locpriv::service {

/// Outcome of one submit() offer. kBlocked is only returned for lossless
/// admission when the caller's abort predicate (or an interrupt, see
/// harness::InterruptScope) fired while waiting for window credit — the
/// batch was neither applied nor shed, so a resumed run re-offers it.
enum class Admission { kAccepted, kDeduped, kShed, kBlocked };

/// One step of an exponentially weighted moving average. Exposed as a free
/// function so the batch-turnaround gauge's arithmetic (ShardLoad::ewma_ms)
/// is unit-testable without standing up a service.
inline double ewma_update(double prev, double sample, double alpha,
                          bool initialized) {
  if (!initialized) return sample;
  return alpha * sample + (1.0 - alpha) * prev;
}

struct ServiceOptions {
  unsigned shards = 2;
  /// Audit interval (seconds) the shard pipeline reports at.
  std::int64_t interval_s = 60;
  /// Dataset seed + scale, pinned into the run-ledger identity.
  std::uint64_t seed = 0;
  std::string scale;
  /// Heartbeat ping cadence per shard.
  std::chrono::milliseconds heartbeat{1000};
  /// An unanswered ping older than this marks the shard unhealthy.
  std::chrono::milliseconds ping_timeout{5000};
  /// Deadline for restore/snapshot/report/drain round trips (these may run
  /// the full metric pipeline, so the budget is separate from pings).
  std::chrono::milliseconds op_timeout{120000};
  /// SIGTERM -> SIGKILL grace for unhealthy or draining shards.
  std::chrono::milliseconds term_grace{2000};
  /// Snapshot cadence per shard; 0 snapshots only on drain/snapshot_now().
  std::chrono::milliseconds snapshot_interval{10000};
  /// Respawns a shard may consume before it is quarantined as flapping.
  int max_respawns = 5;
  /// Base of the deterministic respawn backoff (supervisor's backoff_delay
  /// over `seed`, the shard name and the incarnation).
  std::chrono::milliseconds backoff_base{100};
  /// RLIMIT_AS (MiB) applied inside each shard; 0 = off. A shard's time
  /// is bounded by its ack and ping deadlines, not by a CPU limit: a
  /// long-running service would outlive any lifetime CPU cap.
  std::size_t shard_rlimit_mb = 0;
  /// Deterministic shard misbehaviour for failover rehearsal: plan keys are
  /// shard names ("shard0"), the attempt window counts incarnations. A key
  /// naming no shard of this service is refused with Error(kUsage).
  sim::ProcessFaultPlan fault_plan;
  /// Submit batches into the sabotaged incarnation before the fault fires.
  int fault_after_batches = 3;
  /// Credit window: unacked submit batches a shard may hold in flight
  /// (encoded or retained past its ack watermark) before admission closes.
  /// At least 1; the service refuses 0 with Error(kUsage).
  std::size_t max_inflight_batches = 64;
  /// Retained-replay byte cap per shard. Crossing it forces an early
  /// snapshot (which truncates retained to the snapshot watermark) and
  /// closes admission until the snapshot lands. 0 disables the byte cap.
  std::size_t max_retained_bytes = 0;
};

/// One recovered shard failure, for the bench's recovery-latency metric.
struct RecoveryRecord {
  unsigned shard = 0;
  int incarnation = 0;  ///< The incarnation that replaced the dead one.
  double latency_ms = 0.0;
};

struct ServiceStats {
  /// Every batch offered to submit(), whatever its fate. The reconciliation
  /// identity `offered == submitted + dropped + shed` holds exactly
  /// (kBlocked offers are not counted: the batch never entered the system).
  std::uint64_t batches_offered = 0;
  std::uint64_t batches_submitted = 0;  ///< Accepted into a shard stream.
  std::uint64_t batches_dropped = 0;    ///< Resume-dedupe only.
  std::uint64_t batches_shed = 0;       ///< Shed at the window edge or by quarantine.
  std::uint64_t fixes_submitted = 0;
  std::uint64_t fixes_shed = 0;
  std::uint64_t shed_reject_new = 0;    ///< Incoming batch rejected at the window edge.
  std::uint64_t shed_quarantined = 0;   ///< Offered to a quarantined shard.
  std::uint64_t snapshots = 0;
  std::uint64_t forced_snapshots = 0;   ///< Early snapshots from the retained-byte cap.
  std::uint64_t snapshots_shed = 0;     ///< Snapshot publishes that failed (ENOSPC/EIO).
  std::uint64_t storage_degraded_events = 0;  ///< Storage-degraded episodes entered.
  std::uint64_t blocked_waits = 0;      ///< Lossless submits that waited for window credit.
  int shard_deaths = 0;
  int respawns = 0;
  std::vector<RecoveryRecord> recoveries;
  /// Latest shard-reported resident state bytes, summed over live shards.
  std::size_t state_bytes = 0;
  /// High-water marks proving the flow-control caps held.
  std::size_t retained_bytes_peak = 0;  ///< Max retained replay bytes, any shard.
  std::size_t pending_ops_peak = 0;     ///< Max pending-op deque depth, any shard.
  std::size_t outbuf_bytes_peak = 0;    ///< Max unflushed command bytes, any shard.
};

/// Per-shard flow-control state, for benches and shed reconciliation.
struct ShardLoad {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t acked_seq = 0;        ///< Highest batch seq acked by the child.
  /// Highest batch seq consumed by the parent. Shed offers consume seqs too
  /// (leaving gaps the child tolerates), so this can exceed the accepted
  /// count; see submit().
  std::uint64_t submit_seq = 0;
  std::size_t retained_batches = 0;
  std::size_t retained_bytes = 0;
  /// Batch-turnaround EWMA, encode to ack (0 until the first sample). A
  /// gauge only: wedge detection is the per-batch ack deadline.
  double ewma_ms = 0.0;
  bool storage_degraded = false;      ///< Shedding snapshots after a publish failure.
  bool quarantined = false;
};

/// Per-user offer accounting, for the parity CSV: offered == accepted + shed
/// + deduped. Users a run never offered to do not appear.
struct UserLoad {
  std::uint64_t batches_offered = 0;
  std::uint64_t batches_accepted = 0;
  std::uint64_t batches_shed = 0;
  std::uint64_t batches_deduped = 0;  ///< Covered by a restored snapshot.
  std::uint64_t fixes_shed = 0;
};

class LocprivService {
 public:
  /// Spawns the shards. `resume` re-opens an existing run directory and
  /// restores each shard from its latest journaled snapshot; the ledger
  /// header pins seed, scale, and shard topology, so a mismatched resume
  /// throws Error(kResume) (exit 6). The analyzer must outlive the service
  /// (shards inherit it copy-on-write through fork).
  LocprivService(ServiceOptions options, const core::PrivacyAnalyzer& analyzer,
                 std::filesystem::path run_dir, bool resume);

  /// SIGKILLs any still-running shards (a drained service has none).
  ~LocprivService();

  LocprivService(const LocprivService&) = delete;
  LocprivService& operator=(const LocprivService&) = delete;

  static std::string shard_name(unsigned shard);
  unsigned shard_of(const std::string& user_id) const;

  /// Routes one batch of fixes (non-decreasing timestamps, appended after
  /// everything previously submitted for the user) to the owning shard.
  ///
  /// Admission is governed by the shard's credit window (max_inflight
  /// unacked batches, max_retained replay bytes). Lossless callers
  /// (may_shed = false, the corpus path) block inside submit — ticking the
  /// event loop — until credit opens; they return kBlocked only when the
  /// abort predicate or an interrupt fires first, and the batch is then
  /// neither applied nor counted shed, so a resumed run re-offers it.
  /// Shed-eligible callers (may_shed = true, the synthetic/soak path) never
  /// block: at the window edge the incoming batch is shed (reject-new);
  /// batches already admitted are never evicted. Offers to a quarantined
  /// shard shed deterministically. kDeduped means the sequence
  /// number is already covered by a restored snapshot (resume dedupe);
  /// deterministic resubmission of the same schedule therefore converges to
  /// exactly-once application. Every outcome except kBlocked consumes one
  /// per-shard sequence number — shed offers included — so the Nth offer
  /// maps to the same seq in every run and the resume watermark comparison
  /// stays aligned even though shedding itself is timing-dependent.
  Admission submit(const std::string& user_id,
                   const std::vector<trace::TracePoint>& fixes,
                   bool may_shed = false,
                   const std::function<bool()>& abort = {});

  /// Pumps the event loop: flushes queued commands, drains shard responses
  /// and stderr, reaps deaths, escalates unhealthy shards, respawns (with
  /// backoff) or quarantines dead ones, and triggers snapshot cadence.
  /// Returns once a pump has dispatched a shard response or reaped an exit,
  /// or when `budget` has passed, so it blocks at most `budget`; callers
  /// loop on their own condition.
  void tick(std::chrono::milliseconds budget = std::chrono::milliseconds(20));

  /// Queues an immediate snapshot round on every healthy shard.
  void snapshot_now();

  /// Runs the audit pipeline in every shard and returns one row per user in
  /// analyzer order (users owned by quarantined shards are omitted). Rows
  /// are the audit-all field layout. Drives tick() internally; survives
  /// shard deaths mid-report by re-asking after recovery. Throws
  /// Error(kDeadline) if a shard cannot produce a report within its respawn
  /// budget. An interrupt (harness::InterruptScope) ends the wait early with
  /// the rows that have arrived; serve_traffic then drains and exits 7.
  std::vector<std::vector<std::string>> collect_reports();

  /// Graceful drain: final snapshot on every shard, clean child exits,
  /// ledger sync. The run directory is left resumable. Idempotent.
  void drain();

  const ServiceStats& stats() const { return stats_; }
  const ServiceOptions& options() const { return options_; }
  std::vector<std::string> quarantined_shards() const;

  /// Users of the analyzer whose shard is quarantined, in analyzer order:
  /// the rows collect_reports() omits, which a parity check must skip.
  std::vector<std::string> lost_users() const;

  /// Flow-control snapshot of one shard (offered/accepted/shed, ack and
  /// submit watermarks, retained footprint, turnaround EWMA).
  ShardLoad shard_load(unsigned shard) const;

  /// Per-user offered/accepted/shed/deduped accounting, keyed by user id.
  /// Only users this run offered batches for appear.
  const std::map<std::string, UserLoad>& user_loads() const {
    return user_loads_;
  }

  /// User ids with at least one shed batch, sorted. The parity set a bench
  /// must exclude — everyone else's metrics stay byte-identical.
  std::vector<std::string> shed_users() const;

  /// Submit-batch watermark a shard restored from its snapshot at startup
  /// (0 = fresh). Exposed for resume-aware drivers and tests.
  std::uint64_t restored_seq(unsigned shard) const;

 private:
  struct PendingOp {
    std::string verb;  ///< Expected *response* verb.
    std::uint64_t token = 0;
    /// Per-op response budget. The deadline only starts ticking when the op
    /// reaches the front of the queue (shards answer strictly in order), so
    /// a ping queued behind a slow report is not falsely timed out.
    std::chrono::milliseconds budget{0};
    std::chrono::steady_clock::time_point deadline;
  };

  struct RetainedBatch {
    std::uint64_t seq = 0;
    std::string frame;  ///< Encoded submit message, replayed verbatim.
    std::size_t fixes = 0;
    std::string user;   ///< Owner, for shed accounting on quarantine.
  };

  struct Shard;

  void spawn(Shard& shard);
  void send(Shard& shard, const std::vector<std::string>& fields);
  /// One pass of tick(), waiting at most `timeout` for shard output.
  /// Returns whether it dispatched a response or reaped an exit.
  bool pump(std::chrono::milliseconds timeout);
  /// Encodes retained batches into the shard's outbuf up to the credit
  /// window (the sent_seq cursor tracks what is already encoded). Called
  /// from pump() and after every admission, so acks open the window and the
  /// next unsent batch goes out on the same tick.
  void pump_submits(Shard& shard);
  bool window_full(const Shard& shard) const;
  enum class ShedCause { kRejectNew, kQuarantined };
  void account_shed(Shard& shard, const std::string& user, std::size_t fixes,
                    ShedCause cause);
  void note_turnaround(Shard& shard, double sample_ms);
  /// Starts SIGTERM -> grace -> SIGKILL on an unhealthy shard; the reaper
  /// then respawns it. `failure` becomes its last_failure.
  void terminate(Shard& shard, std::string failure);
  void resume_pointer(Shard& shard);
  void handle_death(Shard& shard, int status);
  void quarantine(Shard& shard, std::string reason);
  void dispatch_response(Shard& shard, const std::vector<std::string>& fields);
  /// A child reported a failed snapshot/drain publish (kRspSnapfail): shed
  /// the snapshot, enter the shard's storage-degraded episode (journaled
  /// once as `<shard>/snapdrop/<n>`), and keep serving from memory under
  /// the retained-byte caps. Repeated *drain* failures exhaust a small
  /// retry budget and throw Error(kIo) — shutdown must not hang on a disk
  /// that will never accept the final snapshot.
  void handle_snapshot_failure(Shard& shard, const std::string& error,
                               bool was_drain);
  void queue_snapshot(Shard& shard, const char* verb);
  void queue_ping(Shard& shard);
  void health_check(Shard& shard);
  void record_snapshot(Shard& shard, const std::vector<std::string>& fields);
  std::filesystem::path snapshot_path(const Shard& shard,
                                      std::uint64_t snap_seq) const;

  ServiceOptions options_;
  const core::PrivacyAnalyzer& analyzer_;
  std::filesystem::path run_dir_;
  std::unique_ptr<harness::RunLedger> ledger_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::map<std::string, unsigned> user_shard_;  ///< Routing cache.
  std::map<std::string, UserLoad> user_loads_;
  ServiceStats stats_;
  std::uint64_t next_token_ = 0;
  bool drained_ = false;
};

}  // namespace locpriv::service
