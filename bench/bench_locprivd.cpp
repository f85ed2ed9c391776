// locprivd soak: the always-on audit service under deliberate shard
// failure. Synthetic mobility traffic is streamed into a sharded
// LocprivService while a ProcessFaultPlan sabotages shard incarnations —
// by default shard0 segfaults and shard1 busy-hangs (ignoring SIGTERM) mid
// soak, so both failover paths run: crash detection via waitpid and hang
// detection via heartbeat timeout with SIGTERM -> grace -> SIGKILL
// escalation. Each dead shard respawns from its last journaled snapshot and
// replays the retained batch suffix; the bench then proves the service's
// per-user audit rows are byte-identical to a single batch-pipeline pass
// over the same schedule (the paper's metrics must not notice the faults).
//
// Output: a console summary plus BENCH_locprivd.json (atomically written)
// with throughput (fixes/sec), resident state bytes per user, snapshot and
// recovery counts, and recovery latency (detection -> post-replay pong).
// Exit 1 when parity fails, a fault path did not fire, or a shard failed to
// recover — CI runs this reduced as the `soak_smoke` chaos test. Bad numbers
// (2), a reused --run-dir (6) and SIGINT/SIGTERM (7, after a drain) exit as
// `locpriv serve` does.
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
#include "mobility/synthesis.hpp"
#include "service/driver.hpp"
#include "service/locprivd.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

using namespace locpriv;

int run(int argc, const char* const* argv) {
  util::Args args;
  args.declare("--users", "6");
  args.declare("--days", "2");
  args.declare("--seed", std::to_string(core::kDatasetSeed));
  args.declare("--shards", "3");
  args.declare("--interval", "60");
  args.declare("--rounds", "1");
  args.declare("--batch", "32");
  args.declare("--pace-ms", "2");
  args.declare("--snapshot-every-ms", "250");
  args.declare("--fault-shards", "crash:1@shard0,hang:1@shard1");
  args.declare("--fault-after", "60");
  args.declare("--run-dir", "");
  args.declare("--json", "BENCH_locprivd.json");
  args.parse(argc, argv, 1);

  bench::print_header("locprivd soak: shard failover and snapshot recovery",
                      /*uses_mobility_corpus=*/false);

  const mobility::DatasetConfig dataset = core::synthetic_corpus(
      args, static_cast<std::uint64_t>(args.get_int("--seed")));
  service::TrafficOptions traffic;
  traffic.batch_size =
      static_cast<std::size_t>(args.get_int("--batch", 0, harness::kMaxFlagCount));
  traffic.rounds = static_cast<int>(args.get_int("--rounds", 0, harness::kMaxFlagCount));
  traffic.pace = std::chrono::milliseconds(
      args.get_int("--pace-ms", 0, harness::kMaxFlagSeconds * 1000));

  const core::PrivacyAnalyzer analyzer = core::PrivacyAnalyzer::from_synthetic(
      core::experiment_analyzer_config(), dataset);
  const service::ServiceOptions options = bench::soak_options(args, analyzer, traffic);
  const bench::RunDir run_dir(args.get("--run-dir"), "bench_locprivd");

  const auto start = std::chrono::steady_clock::now();
  service::LocprivService daemon(options, analyzer, run_dir.path(),
                                 /*resume=*/false);
  std::vector<std::vector<std::string>> rows;
  service::serve_traffic(daemon, analyzer, traffic, run_dir.resumable(),
                         [&] { rows = daemon.collect_reports(); });
  daemon.drain();
  const double duration_s = bench::seconds_since(start);

  // Parity oracle: the batch pipeline over the identical schedule. Users on
  // a quarantined shard (respawn budget exhausted — not expected with the
  // default single-incarnation faults) are excluded but reported.
  const std::vector<std::string> lost_users = daemon.lost_users();
  const std::vector<std::string> mismatched = service::parity_mismatches(
      analyzer, options.interval_s, traffic, rows, lost_users);

  const service::ServiceStats& stats = daemon.stats();
  double latency_sum = 0.0;
  double latency_max = 0.0;
  for (const service::RecoveryRecord& recovery : stats.recoveries) {
    latency_sum += recovery.latency_ms;
    latency_max = std::max(latency_max, recovery.latency_ms);
  }
  const double latency_mean =
      stats.recoveries.empty() ? 0.0
                               : latency_sum / stats.recoveries.size();
  const double fixes_per_sec =
      duration_s > 0.0 ? stats.fixes_submitted / duration_s : 0.0;
  const double bytes_per_user =
      analyzer.user_count() > 0
          ? static_cast<double>(stats.state_bytes) / analyzer.user_count()
          : 0.0;

  std::cout << "soak: " << stats.batches_submitted << " batches, "
            << stats.fixes_submitted << " fixes in "
            << util::format_fixed(duration_s, 1) << "s ("
            << util::format_fixed(fixes_per_sec, 0) << " fixes/s) across "
            << options.shards << " shards\n"
            << "snapshots: " << stats.snapshots
            << "  deaths: " << stats.shard_deaths
            << "  respawns: " << stats.respawns
            << "  recoveries: " << stats.recoveries.size() << "\n"
            << "recovery latency: mean "
            << util::format_fixed(latency_mean, 0) << "ms, max "
            << util::format_fixed(latency_max, 0) << "ms\n"
            << "resident state: "
            << util::format_fixed(bytes_per_user, 0) << " bytes/user\n"
            << "parity: " << rows.size() << " service rows vs batch pipeline, "
            << mismatched.size() << " mismatched\n";
  for (const std::string& user : mismatched)
    std::cout << "  MISMATCH " << user << '\n';
  for (const std::string& name : daemon.quarantined_shards())
    std::cout << "  quarantined: " << name << '\n';

  const bool both_fault_kinds_fired =
      stats.shard_deaths >= 2 && stats.recoveries.size() >= 2;
  const bool snapshotted = stats.snapshots > 0;
  const bool parity_ok = mismatched.empty() && lost_users.empty() &&
                         rows.size() == analyzer.user_count();

  {
    util::JsonWriter json;
    json.begin_object();
    bench::write_bench_header(json, "locprivd");
    json.member("users", static_cast<std::int64_t>(analyzer.user_count()));
    json.member("days", static_cast<std::int64_t>(dataset.synthesis.days));
    json.member("shards", static_cast<std::int64_t>(options.shards));
    json.member("interval_s", options.interval_s);
    json.member("batches_offered",
                static_cast<std::int64_t>(stats.batches_offered));
    json.member("batches_submitted",
                static_cast<std::int64_t>(stats.batches_submitted));
    json.member("batches_shed", static_cast<std::int64_t>(stats.batches_shed));
    json.member("fixes_submitted",
                static_cast<std::int64_t>(stats.fixes_submitted));
    json.member("duration_s", duration_s);
    json.member("fixes_per_sec", fixes_per_sec);
    json.member("resident_bytes_per_user", bytes_per_user);
    json.member("snapshots", static_cast<std::int64_t>(stats.snapshots));
    json.member("shard_deaths", static_cast<std::int64_t>(stats.shard_deaths));
    json.member("respawns", static_cast<std::int64_t>(stats.respawns));
    json.member("recoveries",
                static_cast<std::int64_t>(stats.recoveries.size()));
    json.member("recovery_latency_ms_mean", latency_mean);
    json.member("recovery_latency_ms_max", latency_max);
    json.member("quarantined_shards",
                static_cast<std::int64_t>(daemon.quarantined_shards().size()));
    json.member("parity_ok", parity_ok);
    json.end_object();
    harness::write_file_atomic(args.get("--json"), json.str() + "\n");
    std::cout << "json -> " << args.get("--json") << '\n';
  }

  if (!parity_ok) {
    std::cerr << "FAIL: recovered-shard metrics diverged from the batch "
                 "pipeline\n";
    return 1;
  }
  if (!both_fault_kinds_fired) {
    std::cerr << "FAIL: expected at least 2 shard deaths and recoveries "
                 "(crash + hang), got "
              << stats.shard_deaths << " deaths / "
              << stats.recoveries.size() << " recoveries\n";
    return 1;
  }
  if (!snapshotted) {
    std::cerr << "FAIL: no snapshot was journaled before the faults fired\n";
    return 1;
  }
  std::cout << "\nOK: both injected failures (crash, hang) recovered from "
               "snapshots with byte-identical audit metrics\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main([&] { return run(argc, argv); });
}
