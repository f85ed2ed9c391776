// locprivd overload: the service at several times its sustainable rate with
// one wedged shard. Phase A calibrates: a fault-free lossless drive over
// the same corpus measures the sustainable end-to-end batch rate. Phase B
// then offers traffic as fast as the scheduler allows while shard0
// busy-hangs ignoring SIGTERM, with shed-mode admission for most users and
// a lossless subset driven with blocking backpressure (--lossless-every),
// mirroring production: synthetic load sheds, corpus ingestion never loses
// data. Because the wedged shard absorbs nothing while its credit window is
// exhausted, demand on it must reach at least --overload-factor x what it
// accepted (asserted); the wall-clock offered/sustainable ratio is also
// reported for the whole service.
//
// What it proves, each a hard exit-1 assertion:
//   - bounded memory: parent ru_maxrss under --max-rss-mb, retained replay
//     bytes under the configured cap (+ one frame of slack), pending ops
//     under the credit window + control-op allowance;
//   - exact shed accounting: offered == accepted + deduped + shed, globally
//     and per user;
//   - overload was real: batches were shed and the wedged shard died at
//     least once;
//   - non-shed users' audit rows stay byte-identical to the batch pipeline
//     (and the non-shed set is non-empty, so the parity claim is not
//     vacuous).
// Results land in BENCH_overload.json with the standardized header. CI runs
// this reduced as the `overload_smoke` chaos test. Bad numbers (2), a reused
// --run-dir (6) and SIGINT/SIGTERM (7, after a drain) exit as `locpriv
// serve` does.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/analyzer.hpp"
#include "core/experiment.hpp"
#include "core/harness/atomic_file.hpp"
#include "core/harness/sweep.hpp"
#include "service/driver.hpp"
#include "service/locprivd.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

using namespace locpriv;

/// Peak resident set of this process (parent only; the shards are separate
/// processes and their memory is bounded by RLIMIT_AS / their own caps).
std::size_t max_rss_bytes() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux.
}

int run(int argc, const char* const* argv) {
  util::Args args;
  args.declare("--users", "6");
  args.declare("--days", "2");
  args.declare("--seed", std::to_string(core::kDatasetSeed));
  args.declare("--shards", "3");
  args.declare("--interval", "60");
  args.declare("--batch", "32");
  args.declare("--snapshot-every-ms", "250");
  args.declare("--max-inflight-batches", "8");
  args.declare("--max-retained-kb", "1024");
  args.declare("--fault-shards", "hang:2@shard0");
  args.declare("--fault-after", "8");
  args.declare("--lossless-every", "3");
  args.declare("--overload-factor", "4");
  args.declare("--max-rss-mb", "2048");
  args.declare("--run-dir", "");
  args.declare("--json", "BENCH_overload.json");
  args.parse(argc, argv, 1);
  // Only a shard's first --max-inflight-batches offers are sure to be
  // admitted; a wedge armed later never fires if shedding starves the shard.
  if (args.get_int("--fault-after") > args.get_int("--max-inflight-batches"))
    throw Error(ErrorCode::kUsage, "--fault-after " + args.get("--fault-after") +
                                       " exceeds --max-inflight-batches " +
                                       args.get("--max-inflight-batches"));

  bench::print_header("locprivd overload: bounded queues and load shedding",
                      /*uses_mobility_corpus=*/false);

  service::TrafficOptions traffic;
  traffic.batch_size =
      static_cast<std::size_t>(args.get_int("--batch", 0, harness::kMaxFlagCount));
  traffic.rounds = 1;
  auto overload = traffic;
  overload.may_shed = true;
  overload.lossless_every = static_cast<std::size_t>(
      args.get_int("--lossless-every", 0, harness::kMaxFlagCount));
  // Offered as fast as the loop runs: shedding makes rejected offers nearly
  // free, so the offered rate lands far above the calibrated sustainable
  // rate; the factor is measured and asserted below rather than paced.
  overload.pace = std::chrono::milliseconds(0);
  const double overload_target = static_cast<double>(
      args.get_int("--overload-factor", 1, harness::kMaxFlagCount));
  const std::size_t rss_cap =
      static_cast<std::size_t>(args.get_int("--max-rss-mb", 1, harness::kMaxFlagMiB)) *
      1024 * 1024;

  const core::PrivacyAnalyzer analyzer = core::PrivacyAnalyzer::from_synthetic(
      core::experiment_analyzer_config(),
      core::synthetic_corpus(args, static_cast<std::uint64_t>(args.get_int("--seed"))));
  service::ServiceOptions options = bench::soak_options(args, analyzer, traffic);
  options.max_inflight_batches = static_cast<std::size_t>(
      args.get_int("--max-inflight-batches", 1, harness::kMaxFlagCount));
  options.max_retained_bytes =
      static_cast<std::size_t>(
          args.get_int("--max-retained-kb", 0, harness::kMaxFlagMiB * 1024)) *
      1024;
  const bench::RunDir run_dir(args.get("--run-dir"), "bench_overload");

  // ---- Phase A: calibrate the sustainable rate (no faults, lossless). ----
  double sustainable_batches_per_s = 0.0;
  {
    service::ServiceOptions calibrate = options;
    calibrate.fault_plan = {};
    service::LocprivService daemon(calibrate, analyzer, run_dir.path("calibrate"),
                                   /*resume=*/false);
    const auto start = std::chrono::steady_clock::now();
    const service::TrafficOutcome outcome = service::serve_traffic(
        daemon, analyzer, traffic, run_dir.resumable("calibrate"));
    daemon.drain();
    const double duration_s = std::max(bench::seconds_since(start), 1e-6);
    sustainable_batches_per_s =
        static_cast<double>(outcome.accepted) / duration_s;
    std::cout << "calibration: " << outcome.accepted << " batches in "
              << util::format_fixed(duration_s, 2) << "s ("
              << util::format_fixed(sustainable_batches_per_s, 0)
              << " batches/s sustainable)\n";
  }

  // ---- Phase B: overload with one wedged shard. ----
  service::LocprivService daemon(options, analyzer, run_dir.path("overload"),
                                 /*resume=*/false);
  const auto start = std::chrono::steady_clock::now();
  double offered_duration_s = 0.0;
  std::vector<std::vector<std::string>> rows;
  const service::TrafficOutcome outcome = service::serve_traffic(
      daemon, analyzer, overload, run_dir.resumable("overload"), [&] {
        offered_duration_s = std::max(bench::seconds_since(start), 1e-6);
        rows = daemon.collect_reports();
      });
  daemon.drain();

  const service::ServiceStats& stats = daemon.stats();
  const double offered_per_s =
      static_cast<double>(stats.batches_offered) / offered_duration_s;
  const double overload_factor = sustainable_batches_per_s > 0.0
                                     ? offered_per_s / sustainable_batches_per_s
                                     : 0.0;
  // Demand concentrates on the wedged shard: while it is hung its credit
  // window stays exhausted, so offers keep arriving against ~zero absorption.
  // The peak per-shard offered/accepted ratio is the overload the flow
  // control actually had to contain.
  double peak_shard_demand = 0.0;
  for (unsigned k = 0; k < options.shards; ++k) {
    const service::ShardLoad load = daemon.shard_load(k);
    const double demand = static_cast<double>(load.offered) /
                          static_cast<double>(std::max<std::size_t>(
                              load.accepted, 1));
    peak_shard_demand = std::max(peak_shard_demand, demand);
  }

  // Users to exclude from the parity oracle: anyone shed, plus anyone on a
  // quarantined shard. Everyone else must be byte-identical.
  std::vector<std::string> ignore = daemon.shed_users();
  for (const std::string& user : daemon.lost_users()) ignore.push_back(user);
  std::size_t parity_users = 0;
  for (std::size_t i = 0; i < analyzer.user_count(); ++i)
    if (std::find(ignore.begin(), ignore.end(),
                  analyzer.reference(i).user_id) == ignore.end())
      ++parity_users;
  const std::vector<std::string> mismatched = service::parity_mismatches(
      analyzer, options.interval_s, traffic, rows, ignore);

  // Reconciliation: every offer is accounted for, exactly once, globally
  // and per user (dropped and deduped both count resume dedupe).
  const bool global_reconciles =
      stats.batches_offered ==
          stats.batches_submitted + stats.batches_dropped + stats.batches_shed &&
      outcome.batches == outcome.accepted + outcome.deduped + outcome.shed &&
      stats.batches_shed == stats.shed_reject_new + stats.shed_quarantined;
  bool users_reconcile = true;
  for (const auto& [user, load] : daemon.user_loads())
    if (load.batches_offered !=
        load.batches_accepted + load.batches_shed + load.batches_deduped) {
      users_reconcile = false;
      std::cerr << "  user " << user << ": offered " << load.batches_offered
                << " != accepted " << load.batches_accepted << " + shed "
                << load.batches_shed << " + deduped " << load.batches_deduped
                << '\n';
    }

  const std::size_t rss = max_rss_bytes();
  // Slack: one full batch frame can overshoot the byte cap at admission.
  const std::size_t retained_slack = 64 * 1024;
  const bool retained_ok =
      options.max_retained_bytes == 0 ||
      stats.retained_bytes_peak <= options.max_retained_bytes + retained_slack;
  // Control ops share the pending deque with acks: restore, ping, snapshot,
  // report can each be in flight alongside the windowed submits.
  const bool pending_ok =
      stats.pending_ops_peak <= options.max_inflight_batches + 4;
  const bool rss_ok = rss <= rss_cap;

  std::cout << "overload: " << stats.batches_offered << " offered ("
            << util::format_fixed(overload_factor, 1) << "x sustainable, "
            << util::format_fixed(peak_shard_demand, 1)
            << "x peak shard demand), "
            << stats.batches_submitted << " accepted, " << stats.batches_shed
            << " shed (" << stats.shed_reject_new << " reject-new, "
            << stats.shed_quarantined << " quarantined)\n"
            << "caps: retained peak " << stats.retained_bytes_peak << "/"
            << options.max_retained_bytes << " bytes, pending peak "
            << stats.pending_ops_peak << "/" << options.max_inflight_batches
            << "+4 ops, outbuf peak " << stats.outbuf_bytes_peak
            << " bytes, rss " << rss / (1024 * 1024) << "/"
            << rss_cap / (1024 * 1024) << " MiB\n"
            << "wedge: " << stats.shard_deaths << " deaths, "
            << stats.respawns << " respawns, " << stats.snapshots
            << " snapshots (" << stats.forced_snapshots << " forced)\n"
            << "parity: " << parity_users << " non-shed users checked, "
            << mismatched.size() << " mismatched, " << ignore.size()
            << " excluded (shed or quarantined)\n";
  for (const std::string& user : mismatched)
    std::cout << "  MISMATCH " << user << '\n';

  const bool overloaded =
      stats.batches_shed > 0 && peak_shard_demand >= overload_target;
  const bool wedge_detected = stats.shard_deaths >= 1;
  const bool parity_ok = mismatched.empty() && parity_users > 0;

  {
    util::JsonWriter json;
    json.begin_object();
    bench::write_bench_header(json, "overload");
    json.member("users", static_cast<std::int64_t>(analyzer.user_count()));
    json.member("shards", static_cast<std::int64_t>(options.shards));
    json.member("max_inflight_batches",
                static_cast<std::int64_t>(options.max_inflight_batches));
    json.member("max_retained_bytes",
                static_cast<std::int64_t>(options.max_retained_bytes));
    json.member("sustainable_batches_per_s", sustainable_batches_per_s);
    json.member("offered_batches_per_s", offered_per_s);
    json.member("overload_factor", overload_factor);
    json.member("peak_shard_demand_factor", peak_shard_demand);
    json.member("overload_target", overload_target);
    json.member("batches_offered",
                static_cast<std::int64_t>(stats.batches_offered));
    json.member("batches_accepted",
                static_cast<std::int64_t>(stats.batches_submitted));
    json.member("batches_shed", static_cast<std::int64_t>(stats.batches_shed));
    json.member("shed_reject_new",
                static_cast<std::int64_t>(stats.shed_reject_new));
    json.member("shed_quarantined",
                static_cast<std::int64_t>(stats.shed_quarantined));
    json.member("blocked_waits",
                static_cast<std::int64_t>(stats.blocked_waits));
    json.member("retained_bytes_peak",
                static_cast<std::int64_t>(stats.retained_bytes_peak));
    json.member("pending_ops_peak",
                static_cast<std::int64_t>(stats.pending_ops_peak));
    json.member("outbuf_bytes_peak",
                static_cast<std::int64_t>(stats.outbuf_bytes_peak));
    json.member("parent_rss_bytes", static_cast<std::int64_t>(rss));
    json.member("shard_deaths", static_cast<std::int64_t>(stats.shard_deaths));
    json.member("respawns", static_cast<std::int64_t>(stats.respawns));
    json.member("snapshots", static_cast<std::int64_t>(stats.snapshots));
    json.member("forced_snapshots",
                static_cast<std::int64_t>(stats.forced_snapshots));
    json.member("parity_users", static_cast<std::int64_t>(parity_users));
    json.member("parity_ok", parity_ok);
    json.member("reconcile_ok", global_reconciles && users_reconcile);
    json.member("caps_ok", retained_ok && pending_ok && rss_ok);
    json.end_object();
    harness::write_file_atomic(args.get("--json"), json.str() + "\n");
    std::cout << "json -> " << args.get("--json") << '\n';
  }

  if (!retained_ok || !pending_ok || !rss_ok) {
    std::cerr << "FAIL: a flow-control cap did not hold (retained "
              << stats.retained_bytes_peak << ", pending "
              << stats.pending_ops_peak << ", rss " << rss << ")\n";
    return 1;
  }
  if (!global_reconciles || !users_reconcile) {
    std::cerr << "FAIL: shed accounting does not reconcile exactly\n";
    return 1;
  }
  if (!overloaded) {
    std::cerr << "FAIL: the run never overloaded (shed " << stats.batches_shed
              << ", peak shard demand "
              << util::format_fixed(peak_shard_demand, 2) << "x < target "
              << util::format_fixed(overload_target, 0) << "x)\n";
    return 1;
  }
  if (!wedge_detected) {
    std::cerr << "FAIL: the wedged shard was never detected and killed\n";
    return 1;
  }
  if (!parity_ok) {
    std::cerr << "FAIL: a non-shed user's metrics diverged from the batch "
                 "pipeline (or no user was left to check)\n";
    return 1;
  }
  std::cout << "\nOK: caps held, shed accounting reconciled exactly, and "
               "non-shed users kept byte-identical metrics under "
            << util::format_fixed(peak_shard_demand, 1)
            << "x peak shard demand\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main([&] { return run(argc, argv); });
}
