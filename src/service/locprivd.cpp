#include "service/locprivd.hpp"

#include <algorithm>
#include <csignal>

#include "core/harness/child_process.hpp"
#include "core/harness/supervisor.hpp"
#include "service/shard_child.hpp"
#include "service/snapshot.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace locpriv::service {

namespace {

using Clock = std::chrono::steady_clock;

volatile std::sig_atomic_t g_shutdown = 0;

constexpr std::size_t kMaxRecoveryRecords = 4096;
/// Smoothing factor of the per-shard batch-turnaround EWMA.
constexpr double kEwmaAlpha = 0.2;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             to - from)
      .count();
}

}  // namespace

/// Everything the parent tracks about one shard across its incarnations.
struct LocprivService::Shard {
  enum class State {
    kIdle,         ///< Constructed, not yet spawned.
    kRunning,      ///< Child alive and believed healthy.
    kTerminating,  ///< SIGTERM sent; SIGKILL when the grace expires.
    kDead,         ///< Reaped; respawn scheduled at `respawn_at`.
    kDrained,      ///< Final snapshot journaled; child exiting/exited.
    kQuarantined,  ///< Flapped past the respawn budget; dropped from service.
  };

  unsigned index = 0;
  std::string name;
  State state = State::kIdle;
  /// The current incarnation's process. Respawns reuse it, so its stderr
  /// tail spans every incarnation (the quarantine record journals it).
  harness::ChildProcess proc;
  int incarnation = 0;  ///< Spawn count; the fault plan's attempt window.
  int deaths = 0;

  std::deque<PendingOp> pending;
  std::deque<RetainedBatch> retained;  ///< Accepted but not yet snapshotted.

  /// Last consumed submit sequence. Every non-blocked offer consumes one —
  /// shed offers included — so the offer-to-seq mapping is a pure function
  /// of the deterministic schedule and survives resume (see submit()).
  std::uint64_t submit_seq = 0;
  std::uint64_t acked_seq = 0;        ///< Highest submit seq the child acked.
  std::uint64_t sent_seq = 0;         ///< Highest submit seq encoded for the
                                      ///< current incarnation (credit cursor).
  std::size_t retained_bytes = 0;     ///< Frame bytes held in `retained`.
  /// (seq, encode time) per in-flight batch, for the turnaround EWMA.
  /// Bounded by the credit window: pushed on encode, popped on ack, cleared
  /// on death.
  std::deque<std::pair<std::uint64_t, Clock::time_point>> sent_times;
  double ewma_ms = 0.0;               ///< Batch-turnaround EWMA.
  bool ewma_init = false;
  bool degraded = false;              ///< Inside a degraded-EWMA episode.
  /// Inside a storage-degraded episode: snapshots are shedding because the
  /// child cannot publish them. Survives respawn — the disk, not the
  /// incarnation, is what is broken. Cleared when a publish lands.
  bool storage_degraded = false;
  int drain_snapfails = 0;            ///< Consecutive failed drain publishes.
  std::uint64_t offered = 0;          ///< Batches offered to this shard.
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t restored_seq = 0;     ///< Watermark restored at startup.
  std::uint64_t snap_seq = 0;         ///< Last *journaled* snapshot seq.
  std::uint64_t snap_last_seq = 0;    ///< Watermark of that snapshot.
  std::uint64_t queued_snap_seq = 0;  ///< Highest snapshot seq handed out.
  std::string restore_file;           ///< Snapshot a respawn restores from.
  std::uint64_t restore_expect_seq = 0;

  std::uint64_t ingested = 0;    ///< Child-reported applied fixes.
  std::size_t state_bytes = 0;   ///< Child-reported resident state estimate.
  std::string last_failure;
  bool recovering = false;       ///< A death is awaiting its recovery pong.
  bool death_clock_running = false;
  Clock::time_point death_time{};
  Clock::time_point respawn_at{};
  Clock::time_point last_ping_sent{};
  Clock::time_point next_snapshot_at{};

  std::vector<std::vector<std::string>> report_rows;
  bool report_ready = false;

  explicit Shard(unsigned index) : index(index), name(shard_name(index)) {}

  bool alive() const {
    return state == State::kRunning || state == State::kTerminating;
  }

  bool has_pending(const char* response_verb) const {
    for (const PendingOp& op : pending)
      if (op.verb == response_verb) return true;
    return false;
  }

  void push_op(const char* response_verb, std::uint64_t token,
               std::chrono::milliseconds budget) {
    PendingOp op;
    op.verb = response_verb;
    op.token = token;
    op.budget = budget;
    if (pending.empty()) op.deadline = Clock::now() + budget;
    pending.push_back(std::move(op));
  }

  void pop_op() {
    pending.pop_front();
    if (!pending.empty())
      pending.front().deadline = Clock::now() + pending.front().budget;
  }
};

LocprivService::LocprivService(ServiceOptions options,
                               const core::PrivacyAnalyzer& analyzer,
                               std::filesystem::path run_dir, bool resume)
    : options_(std::move(options)),
      analyzer_(analyzer),
      run_dir_(std::move(run_dir)) {
  if (options_.shards == 0)
    throw Error(ErrorCode::kUsage, "locprivd needs at least one shard");
  // A dead shard's pipe must not kill the whole service with SIGPIPE; the
  // write's EPIPE is handled and the reaper classifies the death.
  ::signal(SIGPIPE, SIG_IGN);
  std::error_code ec;
  std::filesystem::create_directories(run_dir_, ec);

  // The ledger header pins seed, scale, AND shard topology: resuming a
  // run directory journaled under a different shard count would scatter the
  // user->shard mapping across snapshots, so it is refused (exit 6).
  const harness::RunInfo info{"locprivd", options_.seed, options_.scale,
                              "serve-s" + std::to_string(options_.shards)};
  if (!resume && std::filesystem::exists(run_dir_ / "ledger.jsonl"))
    throw Error(ErrorCode::kResume,
                run_dir_.string() +
                    " already holds a ledger; pass resume to continue that "
                    "run or choose a fresh run directory");
  ledger_ = std::make_unique<harness::RunLedger>(run_dir_, info);

  for (unsigned k = 0; k < options_.shards; ++k)
    // One Shard per configured shard, fixed for the service lifetime.
    // locpriv-lint: allow(unbounded-growth)
    shards_.push_back(std::make_unique<Shard>(k));
  if (resume)
    for (auto& shard : shards_) resume_pointer(*shard);
  for (auto& shard : shards_) spawn(*shard);
}

// Each shard's ChildProcess SIGKILLs and reaps a still-running child.
LocprivService::~LocprivService() = default;

std::string LocprivService::shard_name(unsigned shard) {
  return "shard" + std::to_string(shard);
}

unsigned LocprivService::shard_of(const std::string& user_id) const {
  const auto it = user_shard_.find(user_id);
  if (it != user_shard_.end()) return it->second;
  const auto shard =
      static_cast<unsigned>(util::fnv1a(user_id) % options_.shards);
  user_shard_.emplace(user_id, shard);
  return shard;
}

void LocprivService::resume_pointer(Shard& shard) {
  // Snapshot seqs are dense (1, 2, ...) per shard, so the newest journaled
  // snapshot is found by probing upward from the last known seq.
  std::uint64_t newest = 0;
  while (ledger_->completed(shard.name + "/snap/" +
                            std::to_string(newest + 1)))
    ++newest;
  if (newest == 0) return;  // Shard never snapshotted; resumes fresh.

  // Validate before trusting: the newest snapshot file, falling back to the
  // previous one (the service keeps two on disk) if the newest is missing
  // or corrupt. The ledger-recorded checksum ties the file to the journal.
  for (std::uint64_t seq = newest; seq > 0 && seq + 2 > newest; --seq) {
    const std::vector<std::string>* fields =
        ledger_->fields(shard.name + "/snap/" + std::to_string(seq));
    if (fields == nullptr ||
        !check_journaled_snapshot(*fields, shard.index, seq).empty())
      continue;
    shard.restore_file = (*fields)[0];
    shard.restore_expect_seq = seq;
    shard.restored_seq = wire::field_u64((*fields)[1]);
    shard.snap_seq = newest;
    shard.queued_snap_seq = newest;
    shard.snap_last_seq = shard.restored_seq;
    return;
  }
  throw Error(ErrorCode::kResume,
              shard.name + ": no journaled snapshot is loadable; the run "
                           "directory cannot be resumed without divergence");
}

void LocprivService::spawn(Shard& shard) {
  // The body runs in the child, on its copy of this frame: the incarnation
  // it reads is the one this spawn creates.
  shard.proc.spawn(
      [&](int cmd_fd, int resp_fd) {
        return shard_child_main({shard.index, shard.name,
                                 shard.incarnation + 1, cmd_fd, resp_fd},
                                analyzer_, options_);
      },
      options_.shard_rlimit_mb, options_.shard_cpu_s);
  ++shard.incarnation;
  if (shard.incarnation > 1) ++stats_.respawns;
  shard.state = Shard::State::kRunning;
  shard.pending.clear();
  shard.report_ready = false;
  shard.report_rows.clear();
  shard.queued_snap_seq = shard.snap_seq;
  // The new incarnation's memory is exactly the snapshot it restores: the
  // credit cursors rewind to the snapshot watermark so the retained suffix
  // is replayed through the same windowed path as live traffic.
  shard.sent_seq = shard.snap_last_seq;
  shard.acked_seq = shard.snap_last_seq;
  shard.sent_times.clear();
  shard.ewma_ms = 0.0;
  shard.ewma_init = false;
  shard.degraded = false;
  const auto now = Clock::now();
  shard.last_ping_sent = now;
  shard.next_snapshot_at = now + options_.snapshot_interval;

  // Recovery protocol: restore the latest journaled snapshot, replay the
  // retained suffix (everything accepted past the snapshot watermark) under
  // the credit window, then ping — the pong marks the shard recovered.
  if (shard.restore_expect_seq > 0) {
    send(shard, {wire::kCmdRestore, shard.restore_file,
                 std::to_string(shard.restore_expect_seq)});
    shard.push_op(wire::kRspRestored, 0, options_.op_timeout);
  }
  pump_submits(shard);
  queue_ping(shard);
  LOCPRIV_LOG(kInfo, "locprivd")
      << shard.name << " incarnation " << shard.incarnation << " pid "
      << shard.proc.pid()
      << (shard.restore_expect_seq > 0
              ? " restoring snapshot " +
                    std::to_string(shard.restore_expect_seq) + ", replaying " +
                    std::to_string(shard.retained.size()) + " batches"
              : " fresh");
}

void LocprivService::send(Shard& shard, const std::vector<std::string>& fields) {
  shard.proc.write(wire::encode_message(fields));
}

bool LocprivService::window_full(const Shard& shard) const {
  if (options_.max_retained_bytes > 0 &&
      shard.retained_bytes >= options_.max_retained_bytes)
    return true;
  if (options_.max_inflight_batches == 0) return false;
  // Unacked window: retained batches past the child's ack watermark. The
  // deque is seq-sorted, so the boundary is a binary search.
  const auto first_unacked = std::lower_bound(
      shard.retained.begin(), shard.retained.end(), shard.acked_seq,
      [](const RetainedBatch& batch, std::uint64_t acked) {
        return batch.seq <= acked;
      });
  const auto unacked =
      static_cast<std::size_t>(shard.retained.end() - first_unacked);
  return unacked >= options_.max_inflight_batches;
}

void LocprivService::account_shed(Shard& shard, const std::string& user,
                                  std::size_t fixes, ShedCause cause) {
  ++stats_.batches_shed;
  stats_.fixes_shed += fixes;
  switch (cause) {
    case ShedCause::kRejectNew: ++stats_.shed_reject_new; break;
    case ShedCause::kDropOldest: ++stats_.shed_drop_oldest; break;
    case ShedCause::kQuarantined: ++stats_.shed_quarantined; break;
  }
  ++shard.shed;
  UserLoad& load = user_loads_[user];
  ++load.batches_shed;
  load.fixes_shed += fixes;
}

Admission LocprivService::submit(const std::string& user_id,
                                 const std::vector<trace::TracePoint>& fixes,
                                 bool may_shed,
                                 const std::function<bool()>& abort) {
  Shard& shard = *shards_[shard_of(user_id)];
  if (shard.state != Shard::State::kQuarantined &&
      shard.submit_seq + 1 <= shard.restored_seq) {
    // Resume dedupe: the deterministic schedule re-offers batches a restored
    // snapshot already covers; they are dropped without touching the shard
    // (and without consuming window credit). A batch shed in the original
    // run consumed its seq too, so it lands here counted as dropped — never
    // applied in either run, exactly as it would have been.
    ++shard.submit_seq;
    ++stats_.batches_offered;
    ++shard.offered;
    ++user_loads_[user_id].batches_offered;
    ++stats_.batches_dropped;
    return Admission::kDeduped;
  }

  if (!may_shed && shard.state != Shard::State::kQuarantined &&
      window_full(shard)) {
    // Lossless backpressure: the corpus path waits for window credit,
    // pumping the event loop so acks, snapshots, and respawns progress.
    // Aborting here leaves the batch unaccounted — no sequence number was
    // consumed and it never entered the system, so a resumed run re-offers
    // it as the same offer ordinal.
    ++stats_.blocked_waits;
    while (window_full(shard) && shard.state != Shard::State::kQuarantined) {
      if (shutdown_requested() || (abort && abort()))
        return Admission::kBlocked;
      tick(std::chrono::milliseconds(5));
    }
  }

  // Past this point every offer — shed or accepted — consumes exactly one
  // submit seq. Shedding is timing-dependent, so if shed offers skipped
  // seqs, a resumed run's offer-to-seq mapping would shift against the
  // restored watermark: earlier offers would be silently deduped and later
  // ones re-applied on top of the snapshot that already covers them.
  // Consuming the seq keeps the mapping a pure function of the offer
  // schedule; the child tolerates the resulting seq gaps (it tracks the
  // highest applied seq, not contiguity).
  const std::uint64_t seq = ++shard.submit_seq;
  ++stats_.batches_offered;
  ++shard.offered;
  ++user_loads_[user_id].batches_offered;

  if (shard.state == Shard::State::kQuarantined) {
    account_shed(shard, user_id, fixes.size(), ShedCause::kQuarantined);
    return Admission::kShed;
  }

  if (may_shed && window_full(shard)) {
    if (options_.shed_policy == ShedPolicy::kDropOldest) {
      // Drop-oldest can only evict a batch that is not yet on the wire (a
      // consumed frame cannot be unsent). One eviction may free fewer bytes
      // than the incoming frame needs, so keep evicting until the window —
      // count and byte cap both — actually reopens; if everything retained
      // is already in flight the incoming batch is rejected instead.
      while (window_full(shard)) {
        const auto oldest_unsent = std::lower_bound(
            shard.retained.begin(), shard.retained.end(), shard.sent_seq,
            [](const RetainedBatch& batch, std::uint64_t sent) {
              return batch.seq <= sent;
            });
        if (oldest_unsent == shard.retained.end()) break;
        // Reclassify the evicted batch from submitted to shed so
        // `offered == submitted + dropped + shed` keeps reconciling.
        --stats_.batches_submitted;
        stats_.fixes_submitted -= oldest_unsent->fixes;
        --shard.accepted;
        --user_loads_[oldest_unsent->user].batches_accepted;
        account_shed(shard, oldest_unsent->user, oldest_unsent->fixes,
                     ShedCause::kDropOldest);
        shard.retained_bytes -= oldest_unsent->frame.size();
        shard.retained.erase(oldest_unsent);
      }
    }
    if (window_full(shard)) {
      account_shed(shard, user_id, fixes.size(), ShedCause::kRejectNew);
      return Admission::kShed;
    }
  }

  RetainedBatch batch;
  batch.seq = seq;
  batch.frame = wire::encode_message({wire::kCmdSubmit, std::to_string(seq),
                                      user_id, wire::pack_fixes(fixes)});
  batch.fixes = fixes.size();
  batch.user = user_id;
  shard.retained_bytes += batch.frame.size();
  stats_.retained_bytes_peak =
      std::max(stats_.retained_bytes_peak, shard.retained_bytes);
  // Admission closed above at the window edge, so this append is bounded by
  // max_inflight_batches + max_retained_bytes. locpriv-lint: allow(unbounded-growth)
  shard.retained.push_back(std::move(batch));
  ++stats_.batches_submitted;
  stats_.fixes_submitted += fixes.size();
  ++shard.accepted;
  ++user_loads_[user_id].batches_accepted;
  // Encode immediately if the shard is running and credit allows; a dead
  // shard's batch waits in `retained` for the respawn replay.
  pump_submits(shard);
  return Admission::kAccepted;
}

void LocprivService::pump_submits(Shard& shard) {
  if (shard.state != Shard::State::kRunning) return;
  const auto first_unsent = std::lower_bound(
      shard.retained.begin(), shard.retained.end(), shard.sent_seq,
      [](const RetainedBatch& batch, std::uint64_t sent) {
        return batch.seq <= sent;
      });
  for (auto it = first_unsent; it != shard.retained.end(); ++it) {
    // Gate on the count of actually sent-but-unacked batches (sent_times is
    // pushed on encode, popped on ack), not sent_seq - acked_seq: shed and
    // drop-oldest-evicted offers leave seq holes above acked_seq that were
    // never sent, and the subtraction would count them as in flight.
    if (options_.max_inflight_batches > 0 &&
        shard.sent_times.size() >= options_.max_inflight_batches)
      break;  // Window edge: encoding resumes as acks arrive.
    shard.proc.write(it->frame);
    shard.sent_seq = it->seq;
    // Every encoded submit carries an in-order ack obligation with the
    // heartbeat budget: a wedged shard is detected by its oldest unacked
    // batch exactly like a missed ping, so a full pipe cannot stall
    // drain/shutdown. Bounded by the credit window.
    // locpriv-lint: allow(unbounded-growth)
    shard.sent_times.emplace_back(it->seq, Clock::now());
    shard.push_op(wire::kRspAck, it->seq, options_.ping_timeout);
  }
  stats_.pending_ops_peak =
      std::max(stats_.pending_ops_peak, shard.pending.size());
  stats_.outbuf_bytes_peak =
      std::max(stats_.outbuf_bytes_peak, shard.proc.queued());
}

void LocprivService::tick(std::chrono::milliseconds budget) {
  const auto start = Clock::now();
  auto remaining = budget;
  for (;;) {
    const bool progressed =
        pump(std::min(remaining, std::chrono::milliseconds(20)));
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - start);
    if (progressed || elapsed >= budget) break;
    remaining = budget - elapsed;
  }
}

bool LocprivService::pump(std::chrono::milliseconds timeout) {
  const auto now = Clock::now();
  bool progressed = false;

  // 1. Encode window-credited submits, then push queued commands down the
  // (nonblocking) pipes.
  for (auto& owned : shards_) {
    pump_submits(*owned);
    if (owned->alive()) owned->proc.flush();
  }

  // 2. Wait for responses / stderr, bounded by the caller's budget, and
  // dispatch every complete response.
  std::vector<harness::ChildProcess*> procs;
  for (auto& owned : shards_) procs.push_back(&owned->proc);
  harness::ChildProcess::poll_all(procs, timeout);
  for (auto& owned : shards_) {
    Shard& shard = *owned;
    std::vector<std::string> fields;
    while (shard.proc.output().next(fields)) {
      dispatch_response(shard, fields);
      progressed = true;
    }
    if (shard.proc.output().corrupt() && shard.alive()) {
      shard.last_failure = "corrupt response stream";
      shard.proc.kill();
    }
  }

  // 3. Reap exits.
  for (auto& owned : shards_)
    if (const auto status = owned->proc.try_reap()) {
      handle_death(*owned, *status);
      progressed = true;
    }

  // 4. Health: escalate unresponsive shards, finish overdue terminations.
  for (auto& owned : shards_) health_check(*owned);

  // 5. Respawn dead shards whose backoff has elapsed.
  for (auto& owned : shards_) {
    Shard& shard = *owned;
    if (shard.state == Shard::State::kDead && now >= shard.respawn_at)
      spawn(shard);
  }

  // 6. Cadences: heartbeat pings, periodic snapshots, and forced early
  // snapshots when retained replay bytes cross the cap (the snapshot's
  // journaled watermark truncates `retained`, reopening admission).
  for (auto& owned : shards_) {
    Shard& shard = *owned;
    if (shard.state != Shard::State::kRunning) continue;
    if (now - shard.last_ping_sent >= options_.heartbeat &&
        !shard.has_pending(wire::kRspPong))
      queue_ping(shard);
    const bool snapshot_in_flight = shard.has_pending(wire::kRspSnapped) ||
                                    shard.has_pending(wire::kRspDrained);
    if (options_.snapshot_interval.count() > 0 &&
        now >= shard.next_snapshot_at && !snapshot_in_flight) {
      queue_snapshot(shard, wire::kCmdSnapshot);
    } else if (options_.max_retained_bytes > 0 &&
               shard.retained_bytes >= options_.max_retained_bytes &&
               shard.acked_seq > shard.snap_last_seq && !snapshot_in_flight &&
               !shard.storage_degraded) {
      // Only force when the snapshot can advance the watermark (the child
      // acked past the last one), else the snapshot would truncate nothing
      // and the cadence would spin. A storage-degraded shard is also
      // excluded: its publishes are failing, so forcing here would retry in
      // a tight loop instead of on the snapshot cadence — retained stays
      // capped anyway because admission holds at the byte cap.
      ++stats_.forced_snapshots;
      queue_snapshot(shard, wire::kCmdSnapshot);
    }
  }
  return progressed;
}

void LocprivService::health_check(Shard& shard) {
  const auto now = Clock::now();
  if (shard.state == Shard::State::kTerminating) {
    // SIGTERM was delivered; a shard that ignores it (busy-hang) is
    // reclaimed by SIGKILL once the grace expires.
    shard.proc.escalate();
    return;
  }
  if (shard.state != Shard::State::kRunning) return;
  if (shard.pending.empty()) return;
  const PendingOp& front = shard.pending.front();
  if (now < front.deadline) return;
  terminate(shard, "unresponsive: no " + front.verb + " within " +
                       std::to_string(front.budget.count()) + "ms");
}

void LocprivService::terminate(Shard& shard, std::string failure) {
  shard.last_failure = std::move(failure);
  shard.state = Shard::State::kTerminating;
  shard.death_clock_running = true;
  // Recovery latency counts from *detection*.
  shard.death_time = Clock::now();
  shard.proc.terminate(options_.term_grace);
}

void LocprivService::handle_death(Shard& shard, int status) {
  // The reap salvaged what the child fully wrote before dying: complete
  // response frames (a snapshot published just before a crash is valid —
  // the file was committed atomically before the response) and stderr.
  std::vector<std::string> fields;
  while (shard.proc.output().next(fields)) dispatch_response(shard, fields);

  if (shard.state == Shard::State::kDrained ||
      shard.state == Shard::State::kQuarantined)
    return;  // Expected exit after drain, or already written off.

  ++stats_.shard_deaths;
  ++shard.deaths;
  const std::string cause = harness::ChildProcess::describe(status);
  shard.last_failure =
      shard.last_failure.empty() ? cause : shard.last_failure + "; " + cause;
  shard.pending.clear();
  // The dead child's unsnapshotted memory is gone: rewind the credit
  // cursors to the snapshot watermark so window accounting reflects what
  // the *next* incarnation still has to apply.
  shard.acked_seq = shard.snap_last_seq;
  shard.sent_seq = shard.snap_last_seq;
  shard.sent_times.clear();
  shard.report_ready = false;
  shard.report_rows.clear();
  shard.recovering = true;
  if (!shard.death_clock_running) {
    shard.death_clock_running = true;
    shard.death_time = Clock::now();
  }
  LOCPRIV_LOG(kWarn, "locprivd")
      << shard.name << " died (" << cause << "), death " << shard.deaths
      << "/" << options_.max_respawns + 1;

  if (shard.deaths > options_.max_respawns) {
    quarantine(shard, "flapping: " + std::to_string(shard.deaths) +
                          " deaths exceeded the respawn budget of " +
                          std::to_string(options_.max_respawns));
    return;
  }
  // Deterministic backoff, same jitter derivation as supervised cells.
  shard.state = Shard::State::kDead;
  shard.respawn_at =
      Clock::now() + harness::backoff_delay(options_.backoff_base, options_.seed,
                                            shard.name, shard.deaths + 1);
}

void LocprivService::quarantine(Shard& shard, std::string reason) {
  if (shard.proc.running()) {
    shard.proc.kill();
    shard.proc.reap();
  }
  std::vector<std::string> details;
  details.push_back(std::move(reason));
  if (!shard.last_failure.empty())
    details.push_back("last failure: " + shard.last_failure);
  const std::string tail = shard.proc.stderr_tail().one_line();
  if (!tail.empty()) details.push_back("stderr: " + tail);
  ledger_->record_quarantine(shard.name, details);
  shard.state = Shard::State::kQuarantined;
  shard.pending.clear();
  // Unsnapshotted retained batches die with the quarantined shard: shed
  // them deterministically (reclassified from submitted) instead of
  // silently dropping, so the reconciliation identity survives quarantine.
  for (const RetainedBatch& batch : shard.retained) {
    --stats_.batches_submitted;
    stats_.fixes_submitted -= batch.fixes;
    --shard.accepted;
    --user_loads_[batch.user].batches_accepted;
    account_shed(shard, batch.user, batch.fixes, ShedCause::kQuarantined);
  }
  shard.retained.clear();
  shard.retained_bytes = 0;
  shard.sent_times.clear();
  shard.report_ready = false;
  shard.report_rows.clear();
  shard.recovering = false;
  LOCPRIV_LOG(kError, "locprivd") << shard.name << " quarantined";
}

void LocprivService::dispatch_response(Shard& shard,
                                       const std::vector<std::string>& fields) {
  if (fields.empty()) return;
  const std::string& verb = fields[0];
  if (!shard.pending.empty() && shard.pending.front().verb == verb)
    shard.pop_op();

  if (verb == wire::kRspAck && fields.size() >= 3) {
    const std::uint64_t seq = wire::field_u64(fields[1]);
    if (seq > shard.acked_seq) shard.acked_seq = seq;
    // Turnaround sample: encode-to-ack latency of this batch. Acks arrive
    // in order; anything older without a sample was reset by a respawn.
    while (!shard.sent_times.empty() && shard.sent_times.front().first < seq)
      shard.sent_times.pop_front();
    if (!shard.sent_times.empty() && shard.sent_times.front().first == seq) {
      const double sample =
          ms_between(shard.sent_times.front().second, Clock::now());
      shard.sent_times.pop_front();
      note_turnaround(shard, sample);
    }
    // The freed credit encodes the next unsent retained batch immediately.
    pump_submits(shard);
    return;
  }

  if (verb == wire::kRspPong && fields.size() >= 4) {
    shard.ingested = wire::field_u64(fields[2]);
    shard.state_bytes = static_cast<std::size_t>(wire::field_u64(fields[3]));
    std::size_t total = 0;
    for (const auto& owned : shards_) total += owned->state_bytes;
    stats_.state_bytes = total;
    if (shard.recovering) {
      RecoveryRecord record;
      record.shard = shard.index;
      record.incarnation = shard.incarnation;
      record.latency_ms = ms_between(shard.death_time, Clock::now());
      // An always-on service accumulates recoveries forever; keep the
      // newest window (benches read recent latency, not ancient history).
      if (stats_.recoveries.size() >= kMaxRecoveryRecords)
        stats_.recoveries.erase(stats_.recoveries.begin());
      stats_.recoveries.push_back(record);
      shard.recovering = false;
      shard.death_clock_running = false;
      shard.last_failure.clear();
      LOCPRIV_LOG(kInfo, "locprivd")
          << shard.name << " recovered in "
          << static_cast<long>(record.latency_ms) << "ms";
    }
  } else if (verb == wire::kRspRestored && fields.size() >= 4) {
    if (fields[3] != "ok")
      quarantine(shard, "snapshot restore failed: " + fields[3]);
  } else if ((verb == wire::kRspSnapped || verb == wire::kRspDrained) &&
             fields.size() >= 6) {
    record_snapshot(shard, fields);
    if (verb == wire::kRspDrained) shard.state = Shard::State::kDrained;
  } else if (verb == wire::kRspSnapfail && fields.size() >= 3) {
    // The failed publish's pending op was queued under its *success* verb
    // (kRspSnapped/kRspDrained), so the auto-pop above did not fire; pop it
    // explicitly or the shard would be falsely escalated as unresponsive
    // once the op deadline lapses.
    bool was_drain = false;
    if (!shard.pending.empty() &&
        (shard.pending.front().verb == wire::kRspSnapped ||
         shard.pending.front().verb == wire::kRspDrained)) {
      was_drain = shard.pending.front().verb == wire::kRspDrained;
      shard.pop_op();
    }
    handle_snapshot_failure(shard, fields[2], was_drain);
  } else if (verb == wire::kRspReports && fields.size() >= 4) {
    const std::size_t rows = static_cast<std::size_t>(wire::field_u64(fields[2]));
    const std::size_t cols = static_cast<std::size_t>(wire::field_u64(fields[3]));
    shard.report_rows.clear();
    if (fields.size() >= 4 + rows * cols) {
      for (std::size_t r = 0; r < rows; ++r)
        shard.report_rows.emplace_back(
            fields.begin() + static_cast<std::ptrdiff_t>(4 + r * cols),
            fields.begin() + static_cast<std::ptrdiff_t>(4 + (r + 1) * cols));
      shard.report_ready = true;
    }
  }
}

void LocprivService::handle_snapshot_failure(Shard& shard,
                                             const std::string& error,
                                             bool was_drain) {
  ++stats_.snapshots_shed;
  // Rewind the handed-out seq so the retry reuses it: journaled snapshot
  // seqs must stay dense (1, 2, ...) per shard or resume_pointer's upward
  // probe would stop short of snapshots journaled after a failure.
  shard.queued_snap_seq = shard.snap_seq;
  // Retry on the normal cadence; the successful publish re-arms the shard.
  shard.next_snapshot_at = Clock::now() + options_.snapshot_interval;
  if (!shard.storage_degraded) {
    shard.storage_degraded = true;
    ++stats_.storage_degraded_events;
    // One journal line per degraded episode (probe-upward key, like the
    // shed records), so an offline audit of the run directory can count
    // snapshot-shedding episodes and see what the disk said. If the ledger
    // itself cannot append (same full disk), the Error propagates and the
    // service exits with the I/O taxonomy code — degraded mode trades
    // snapshot durability, never journal integrity.
    std::uint64_t n = 1;
    while (ledger_->completed(shard.name + "/snapdrop/" + std::to_string(n)))
      ++n;
    ledger_->record(shard.name + "/snapdrop/" + std::to_string(n),
                    {std::to_string(shard.snap_seq + 1), error});
    LOCPRIV_LOG(kWarn, "locprivd")
        << shard.name << " snapshot publish failed (" << error
        << "); shedding snapshots, serving from memory";
  }
  if (was_drain) {
    // A drain retries through the drain() loop; a disk that never accepts
    // the final snapshot must not hang shutdown forever.
    ++shard.drain_snapfails;
    if (shard.drain_snapfails >= 3)
      throw Error(ErrorCode::kIo,
                  shard.name + ": final drain snapshot failed " +
                      std::to_string(shard.drain_snapfails) +
                      " times: " + error);
  }
}

std::filesystem::path LocprivService::snapshot_path(
    const Shard& shard, std::uint64_t snap_seq) const {
  return run_dir_ /
         (shard.name + ".snap." + std::to_string(snap_seq) + ".dat");
}

void LocprivService::queue_snapshot(Shard& shard, const char* verb) {
  const std::uint64_t snap_seq =
      std::max(shard.snap_seq, shard.queued_snap_seq) + 1;
  shard.queued_snap_seq = snap_seq;
  send(shard, {verb, std::to_string(snap_seq),
               snapshot_path(shard, snap_seq).string()});
  shard.push_op(std::string(verb) == wire::kCmdDrain ? wire::kRspDrained
                                                     : wire::kRspSnapped,
                0, options_.op_timeout);
}

void LocprivService::queue_ping(Shard& shard) {
  const std::uint64_t token = ++next_token_;
  send(shard, {wire::kCmdPing, std::to_string(token)});
  shard.push_op(wire::kRspPong, token, options_.ping_timeout);
  shard.last_ping_sent = Clock::now();
}

void LocprivService::record_snapshot(Shard& shard,
                                     const std::vector<std::string>& fields) {
  const std::uint64_t snap_seq = wire::field_u64(fields[1]);
  const std::uint64_t last_seq = wire::field_u64(fields[2]);
  const std::string file = snapshot_path(shard, snap_seq).string();
  // Key per seq — the ledger refuses duplicate cells, which is exactly the
  // invariant: one journal line per published snapshot.
  ledger_->record(shard.name + "/snap/" + std::to_string(snap_seq),
                  {file, fields[2], fields[3], fields[4], fields[5]});
  ++stats_.snapshots;
  if (shard.storage_degraded) {
    // The publish landed: storage recovered. Re-arm normal snapshotting.
    shard.storage_degraded = false;
    shard.drain_snapfails = 0;
    LOCPRIV_LOG(kInfo, "locprivd")
        << shard.name << " snapshot " << snap_seq
        << " published; storage recovered, snapshots re-armed";
  }
  shard.snap_seq = snap_seq;
  shard.snap_last_seq = last_seq;
  shard.restore_file = file;
  shard.restore_expect_seq = snap_seq;
  shard.next_snapshot_at = Clock::now() + options_.snapshot_interval;
  // The journaled snapshot now covers every batch up to last_seq: the
  // parent's retention obligation ends there. The snapshot also proves the
  // child applied through last_seq, so the credit cursors floor there even
  // if individual acks were lost to a pipe race.
  while (!shard.retained.empty() && shard.retained.front().seq <= last_seq) {
    shard.retained_bytes -= shard.retained.front().frame.size();
    shard.retained.pop_front();
  }
  shard.acked_seq = std::max(shard.acked_seq, last_seq);
  shard.sent_seq = std::max(shard.sent_seq, last_seq);
  // The floored watermark covers these in-flight entries too: drop them so
  // sent_times stays an exact count of sent-but-unacked batches (the
  // encoding gate in pump_submits) even when individual acks were lost.
  while (!shard.sent_times.empty() &&
         shard.sent_times.front().first <= last_seq)
    shard.sent_times.pop_front();
  // Keep the previous snapshot as the resume fallback; reclaim older ones.
  if (snap_seq >= 3) {
    std::error_code ec;
    std::filesystem::remove(snapshot_path(shard, snap_seq - 2), ec);
  }
}

std::vector<std::vector<std::string>> LocprivService::collect_reports() {
  for (auto& owned : shards_) {
    owned->report_ready = false;
    owned->report_rows.clear();
  }
  // A shard may die mid-report and be respawned (restore + replay) several
  // times; the overall budget covers the full respawn allowance.
  const auto deadline =
      Clock::now() + options_.op_timeout * (options_.max_respawns + 1);
  for (;;) {
    bool all_ready = true;
    for (auto& owned : shards_) {
      Shard& shard = *owned;
      if (shard.state == Shard::State::kQuarantined) continue;
      if (shard.report_ready) continue;
      all_ready = false;
      // Commands are applied in order, so the report must be encoded after
      // every admitted batch — window-blocked (unsent) retained batches
      // would otherwise be invisible to it.
      const bool all_sent = shard.retained.empty() ||
                            shard.retained.back().seq <= shard.sent_seq;
      if (shard.state == Shard::State::kRunning && all_sent &&
          !shard.has_pending(wire::kRspReports)) {
        const std::uint64_t token = ++next_token_;
        send(shard, {wire::kCmdReport, std::to_string(token)});
        shard.push_op(wire::kRspReports, token, options_.op_timeout);
      }
    }
    if (all_ready) break;
    if (Clock::now() >= deadline)
      throw Error(ErrorCode::kDeadline,
                  "shard reports did not complete within the respawn budget");
    tick(std::chrono::milliseconds(20));
  }

  std::map<std::string, const std::vector<std::string>*> by_user;
  for (const auto& owned : shards_)
    for (const auto& row : owned->report_rows)
      if (!row.empty()) by_user[row.front()] = &row;
  std::vector<std::vector<std::string>> rows;
  rows.reserve(by_user.size());
  for (std::size_t i = 0; i < analyzer_.user_count(); ++i) {
    const auto it = by_user.find(analyzer_.reference(i).user_id);
    if (it != by_user.end()) rows.push_back(*it->second);
  }
  return rows;
}

void LocprivService::snapshot_now() {
  for (auto& owned : shards_) {
    Shard& shard = *owned;
    if (shard.state == Shard::State::kRunning &&
        !shard.has_pending(wire::kRspSnapped) &&
        !shard.has_pending(wire::kRspDrained))
      queue_snapshot(shard, wire::kCmdSnapshot);
  }
}

void LocprivService::drain() {
  if (drained_) return;
  const auto deadline =
      Clock::now() + options_.op_timeout * (options_.max_respawns + 2);
  for (;;) {
    bool all_done = true;
    for (auto& owned : shards_) {
      Shard& shard = *owned;
      if (shard.state == Shard::State::kQuarantined) continue;
      if (shard.state == Shard::State::kDrained && !shard.proc.running())
        continue;
      all_done = false;
      // Dead shards are respawned by the pump (restore + replay) and then
      // drained, so their retained batches reach a final snapshot too. The
      // drain frame must follow every admitted batch down the pipe, so a
      // window-blocked shard keeps pumping until its retained suffix is
      // fully encoded before the drain is queued.
      const bool all_sent = shard.retained.empty() ||
                            shard.retained.back().seq <= shard.sent_seq;
      if (shard.state == Shard::State::kRunning && all_sent &&
          !shard.has_pending(wire::kRspDrained)) {
        // The pong refreshes the ingested/state_bytes gauges after the last
        // batch, even in a run shorter than one heartbeat.
        queue_ping(shard);
        queue_snapshot(shard, wire::kCmdDrain);
      }
    }
    if (all_done) break;
    if (Clock::now() >= deadline)
      throw Error(ErrorCode::kDeadline,
                  "drain did not complete within the respawn budget");
    tick(std::chrono::milliseconds(20));
  }
  // Journal per-shard shed accounting so an audit of the run directory can
  // reconcile offered == accepted + shed without the process alive. The key
  // probes upward (like snapshot seqs) so resumed runs append new records.
  for (const auto& owned : shards_) {
    const Shard& shard = *owned;
    if (shard.shed == 0) continue;  // Lossless runs keep the old ledger shape.
    std::uint64_t n = 1;
    while (ledger_->completed(shard.name + "/shed/" + std::to_string(n))) ++n;
    ledger_->record(shard.name + "/shed/" + std::to_string(n),
                    {std::to_string(shard.offered),
                     std::to_string(shard.accepted),
                     std::to_string(shard.shed)});
  }
  ledger_->sync();
  drained_ = true;
  LOCPRIV_LOG(kInfo, "locprivd")
      << "drained: " << stats_.snapshots << " snapshots journaled, run "
      << "directory resumable";
}

void LocprivService::note_turnaround(Shard& shard, double sample_ms) {
  shard.ewma_ms =
      ewma_update(shard.ewma_ms, sample_ms, kEwmaAlpha, shard.ewma_init);
  shard.ewma_init = true;
  if (options_.slow_restart_ms.count() > 0 &&
      shard.ewma_ms >= static_cast<double>(options_.slow_restart_ms.count()) &&
      shard.state == Shard::State::kRunning) {
    // A shard this slow is indistinguishable from one about to wedge: give
    // it the same SIGTERM -> grace -> SIGKILL respawn a missed ping earns.
    // The respawn replays the retained suffix, so nothing is lost.
    ++stats_.slow_restarts;
    terminate(shard, "slow: turnaround EWMA " +
                         std::to_string(static_cast<long>(shard.ewma_ms)) +
                         "ms exceeded restart threshold");
    return;
  }
  if (options_.degraded_ms.count() > 0) {
    const double threshold = static_cast<double>(options_.degraded_ms.count());
    if (!shard.degraded && shard.ewma_ms >= threshold) {
      // Entering a degraded episode: snapshot out of band while the shard
      // still answers, shrinking the replay a later death would need.
      shard.degraded = true;
      ++stats_.degraded_events;
      if (shard.state == Shard::State::kRunning &&
          !shard.has_pending(wire::kRspSnapped) &&
          !shard.has_pending(wire::kRspDrained))
        queue_snapshot(shard, wire::kCmdSnapshot);
    } else if (shard.degraded && shard.ewma_ms < 0.5 * threshold) {
      shard.degraded = false;  // Hysteresis: recovered well clear of it.
    }
  }
}

void LocprivService::inject_turnaround_sample_for_testing(unsigned shard,
                                                          double ms) {
  note_turnaround(*shards_.at(shard), ms);
}

ShardLoad LocprivService::shard_load(unsigned shard) const {
  const Shard& s = *shards_.at(shard);
  ShardLoad load;
  load.offered = s.offered;
  load.accepted = s.accepted;
  load.shed = s.shed;
  load.acked_seq = s.acked_seq;
  load.submit_seq = s.submit_seq;
  load.retained_batches = s.retained.size();
  load.retained_bytes = s.retained_bytes;
  load.ewma_ms = s.ewma_init ? s.ewma_ms : 0.0;
  load.degraded = s.degraded;
  load.storage_degraded = s.storage_degraded;
  load.quarantined = s.state == Shard::State::kQuarantined;
  return load;
}

std::vector<std::string> LocprivService::shed_users() const {
  std::vector<std::string> users;
  for (const auto& [user, load] : user_loads_)
    if (load.batches_shed > 0) users.push_back(user);
  return users;
}

std::vector<std::string> LocprivService::quarantined_shards() const {
  std::vector<std::string> names;
  for (const auto& owned : shards_)
    if (owned->state == Shard::State::kQuarantined)
      names.push_back(owned->name);
  return names;
}

std::uint64_t LocprivService::restored_seq(unsigned shard) const {
  return shards_.at(shard)->restored_seq;
}

void LocprivService::request_shutdown(int /*signal*/) { g_shutdown = 1; }

bool LocprivService::shutdown_requested() { return g_shutdown != 0; }

void LocprivService::clear_shutdown() { g_shutdown = 0; }

}  // namespace locpriv::service
