// Deterministic synthetic-traffic driver and parity oracle for locprivd.
//
// The traffic schedule is a pure function of (analyzer, TrafficOptions):
// every user's full-rate trace is chunked into fixed-size batches and the
// users are interleaved round-robin, optionally for several rounds with the
// whole corpus time-shifted per round. Because the schedule is canonical,
// a restarted service can simply be fed the same schedule again — the
// service's sequence-number dedupe drops everything a restored snapshot
// already covers — and the batch-pipeline reference for any user is just
// scheduled_fixes() run through PrivacyAnalyzer::evaluate_collected, which
// is what parity_mismatches() checks byte-for-byte.
#pragma once

#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "service/locprivd.hpp"

namespace locpriv::service {

struct TrafficOptions {
  std::size_t batch_size = 64;  ///< Fixes per submit batch.
  int rounds = 1;               ///< Dataset passes (soak length control).
  /// Sleep between submitted batches (paces a soak over wall-clock time).
  std::chrono::milliseconds pace{0};
  /// Admission mode. false = lossless corpus semantics: submits block for
  /// window credit, and nothing is shed. true = synthetic/soak semantics:
  /// submits never block; at the window edge the service sheds the incoming
  /// batch.
  bool may_shed = false;
  /// With may_shed, drive every Nth user (0-based analyzer index % N == 0)
  /// losslessly anyway. An overload soak uses this to guarantee a non-empty
  /// set of users whose metrics must stay byte-identical to the batch
  /// pipeline while the rest of the population sheds. 0 = nobody.
  std::size_t lossless_every = 0;
};

struct TrafficOutcome {
  std::uint64_t batches = 0;   ///< Batches offered to the service.
  std::uint64_t accepted = 0;  ///< Batches the service accepted.
  std::uint64_t deduped = 0;   ///< Batches dropped by resume dedupe.
  std::uint64_t shed = 0;      ///< Batches the service shed at the window edge.
  std::uint64_t fixes = 0;     ///< Fixes inside accepted batches.
  bool interrupted = false;    ///< Stopped early (interrupt or should_stop).
};

/// Streams the canonical schedule into the service, ticking it between
/// batches. harness::interrupt_requested() and `should_stop` (optional) are
/// polled per batch; when either is true the drive stops early with
/// interrupted = true.
TrafficOutcome drive_traffic(LocprivService& service,
                             const core::PrivacyAnalyzer& analyzer,
                             const TrafficOptions& options,
                             const std::function<bool()>& should_stop = {});

/// The serving step of every locprivd front end (serve and the service
/// benches): drive_traffic, then `then` (collecting the reports, say), under
/// one harness::InterruptScope. When SIGINT or SIGTERM arrives, the drive
/// or the report wait stops, the service is drained, so `run_dir` stays
/// resumable, and harness::interrupted_error is thrown (exit 7; an empty
/// `run_dir` means a run with nothing to resume).
TrafficOutcome serve_traffic(LocprivService& service,
                             const core::PrivacyAnalyzer& analyzer,
                             const TrafficOptions& options,
                             const std::filesystem::path& run_dir,
                             const std::function<void()>& then = {});

/// The scale a locprivd run pins in its ledger identity (ServiceOptions::
/// scale), e.g. "6u_t60_b64": users, audit interval and batch size. The
/// batch size decides which batch each per-shard sequence number names, so
/// a resume under another --batch is refused (exit 6) instead of deduping
/// the wrong batches.
std::string run_scale(const core::PrivacyAnalyzer& analyzer,
                      std::int64_t interval_s, const TrafficOptions& options);

/// Exactly the fixes the schedule submits for `user`, in submit order — the
/// input to the batch-pipeline parity reference.
std::vector<trace::TracePoint> scheduled_fixes(
    const core::PrivacyAnalyzer& analyzer, std::size_t user,
    const TrafficOptions& options);

/// The audit-all row layout for one exposure report: user, interval_s,
/// collected_fixes, extracted_pois, poi_total, poi_sensitive, hisbin_visits,
/// hisbin_movements, breach, deg_anonymity_p2. Shared by the shard pipeline
/// and the batch reference so parity is a plain string comparison.
std::vector<std::string> exposure_fields(const std::string& user_id,
                                         std::int64_t interval_s,
                                         const core::ExposureReport& report);

/// The single-pass batch-pipeline rows for the full schedule, analyzer user
/// order, same layout as LocprivService::collect_reports().
std::vector<std::vector<std::string>> batch_reference_rows(
    const core::PrivacyAnalyzer& analyzer, std::int64_t interval_s,
    const TrafficOptions& options);

/// Users whose service row differs from (or is missing against) the batch
/// reference; empty means byte-identical parity. `ignore_users` skips users
/// expected to be absent (LocprivService::lost_users(), shed users).
std::vector<std::string> parity_mismatches(
    const core::PrivacyAnalyzer& analyzer, std::int64_t interval_s,
    const TrafficOptions& options,
    const std::vector<std::vector<std::string>>& service_rows,
    const std::vector<std::string>& ignore_users = {});

}  // namespace locpriv::service
