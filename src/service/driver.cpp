#include "service/driver.hpp"

#include <algorithm>
#include <map>
#include <thread>

#include "core/harness/interrupt.hpp"
#include "util/strings.hpp"

namespace locpriv::service {

namespace {

/// Gap inserted between rounds on top of the corpus span.
constexpr std::int64_t kRoundGapS = 86400;

/// Per-round timestamp offset: rounds replay the corpus shifted by its span
/// plus kRoundGapS, so each user's stream stays strictly increasing
/// (evaluate_collected requires non-decreasing time order).
std::int64_t round_offset(const core::PrivacyAnalyzer& analyzer, int round) {
  if (round == 0) return 0;
  std::int64_t min_ts = 0;
  std::int64_t max_ts = 0;
  bool first = true;
  for (std::size_t i = 0; i < analyzer.user_count(); ++i) {
    const auto& points = analyzer.reference(i).points;
    if (points.empty()) continue;
    if (first || points.front().timestamp_s < min_ts)
      min_ts = points.front().timestamp_s;
    if (first || points.back().timestamp_s > max_ts)
      max_ts = points.back().timestamp_s;
    first = false;
  }
  const std::int64_t span = (max_ts - min_ts) + kRoundGapS;
  return static_cast<std::int64_t>(round) * span;
}

/// Fixes per submitted batch: a batch size of 0 sends one fix at a time.
std::size_t effective_batch(const TrafficOptions& options) {
  return std::max<std::size_t>(options.batch_size, 1);
}

}  // namespace

TrafficOutcome drive_traffic(LocprivService& service,
                             const core::PrivacyAnalyzer& analyzer,
                             const TrafficOptions& options,
                             const std::function<bool()>& should_stop) {
  TrafficOutcome outcome;
  const std::size_t batch = effective_batch(options);
  for (int round = 0; round < options.rounds; ++round) {
    const std::int64_t offset = round_offset(analyzer, round);
    // Round-robin across users: cursor[i] is the next unsent fix of user i.
    std::vector<std::size_t> cursor(analyzer.user_count(), 0);
    bool pending = true;
    while (pending) {
      pending = false;
      for (std::size_t i = 0; i < analyzer.user_count(); ++i) {
        const auto& reference = analyzer.reference(i);
        if (cursor[i] >= reference.points.size()) continue;
        pending = true;
        if (harness::interrupt_requested() || (should_stop && should_stop())) {
          outcome.interrupted = true;
          return outcome;
        }
        const std::size_t take =
            std::min(batch, reference.points.size() - cursor[i]);
        std::vector<trace::TracePoint> fixes(
            reference.points.begin() +
                static_cast<std::ptrdiff_t>(cursor[i]),
            reference.points.begin() +
                static_cast<std::ptrdiff_t>(cursor[i] + take));
        for (trace::TracePoint& fix : fixes) fix.timestamp_s += offset;
        cursor[i] += take;
        ++outcome.batches;
        const bool lossless =
            !options.may_shed ||
            (options.lossless_every > 0 && i % options.lossless_every == 0);
        const Admission admission =
            service.submit(reference.user_id, fixes, !lossless, should_stop);
        switch (admission) {
          case Admission::kAccepted:
            ++outcome.accepted;
            outcome.fixes += take;
            break;
          case Admission::kDeduped:
            ++outcome.deduped;
            break;
          case Admission::kShed:
            ++outcome.shed;
            break;
          case Admission::kBlocked:
            // An interrupt or the abort predicate fired while waiting for
            // credit; the batch never entered the system and a resumed run
            // re-offers it. Uncount the offer to keep the tallies honest.
            --outcome.batches;
            outcome.interrupted = true;
            return outcome;
        }
        service.tick(std::chrono::milliseconds(0));
        if (options.pace.count() > 0)
          std::this_thread::sleep_for(options.pace);
      }
    }
  }
  return outcome;
}

TrafficOutcome serve_traffic(LocprivService& service,
                             const core::PrivacyAnalyzer& analyzer,
                             const TrafficOptions& options,
                             const std::filesystem::path& run_dir,
                             const std::function<void()>& then) {
  // The drain runs inside the scope too, as a sweep's does: a second signal
  // cannot cut it short.
  const harness::InterruptScope interrupts;
  const TrafficOutcome outcome = drive_traffic(service, analyzer, options);
  if (!outcome.interrupted && then) then();
  if (harness::interrupt_requested()) {
    service.drain();
    throw harness::interrupted_error(
        std::to_string(outcome.accepted) + " accepted batches", run_dir);
  }
  return outcome;
}

std::string run_scale(const core::PrivacyAnalyzer& analyzer,
                      std::int64_t interval_s, const TrafficOptions& options) {
  return std::to_string(analyzer.user_count()) + "u_t" + std::to_string(interval_s) +
         "_b" + std::to_string(effective_batch(options));
}

std::vector<trace::TracePoint> scheduled_fixes(
    const core::PrivacyAnalyzer& analyzer, std::size_t user,
    const TrafficOptions& options) {
  const auto& points = analyzer.reference(user).points;
  std::vector<trace::TracePoint> fixes;
  fixes.reserve(points.size() * static_cast<std::size_t>(options.rounds));
  for (int round = 0; round < options.rounds; ++round) {
    const std::int64_t offset = round_offset(analyzer, round);
    for (trace::TracePoint fix : points) {
      fix.timestamp_s += offset;
      fixes.push_back(fix);
    }
  }
  return fixes;
}

std::vector<std::string> exposure_fields(const std::string& user_id,
                                         std::int64_t interval_s,
                                         const core::ExposureReport& report) {
  return {user_id,
          std::to_string(interval_s),
          std::to_string(report.collected_fixes),
          std::to_string(report.extracted_pois),
          util::format_fixed(report.poi_total.fraction(), 4),
          util::format_fixed(report.poi_sensitive.fraction(), 4),
          report.hisbin_visits ? "1" : "0",
          report.hisbin_movements ? "1" : "0",
          report.breach_detected() ? "1" : "0",
          util::format_fixed(report.anonymity_movements, 4)};
}

std::vector<std::vector<std::string>> batch_reference_rows(
    const core::PrivacyAnalyzer& analyzer, std::int64_t interval_s,
    const TrafficOptions& options) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(analyzer.user_count());
  for (std::size_t i = 0; i < analyzer.user_count(); ++i) {
    const std::string& user_id = analyzer.reference(i).user_id;
    const core::ExposureReport report = analyzer.evaluate_collected(
        i, interval_s, scheduled_fixes(analyzer, i, options));
    rows.push_back(exposure_fields(user_id, interval_s, report));
  }
  return rows;
}

std::vector<std::string> parity_mismatches(
    const core::PrivacyAnalyzer& analyzer, std::int64_t interval_s,
    const TrafficOptions& options,
    const std::vector<std::vector<std::string>>& service_rows,
    const std::vector<std::string>& ignore_users) {
  std::map<std::string, const std::vector<std::string>*> by_user;
  for (const auto& row : service_rows)
    if (!row.empty()) by_user[row.front()] = &row;

  std::vector<std::string> mismatched;
  for (const auto& expected :
       batch_reference_rows(analyzer, interval_s, options)) {
    const std::string& user_id = expected.front();
    if (std::find(ignore_users.begin(), ignore_users.end(), user_id) !=
        ignore_users.end())
      continue;
    const auto it = by_user.find(user_id);
    if (it == by_user.end() || *it->second != expected)
      mismatched.push_back(user_id);
  }
  return mismatched;
}

}  // namespace locpriv::service
