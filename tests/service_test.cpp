// locprivd tests: the wire codec, the bounded stderr tail, the snapshot
// codec, and the ServiceFailover battery (suite runs under the `chaos`
// ctest label) — shard crash/hang recovery with byte-identical metric
// parity against the batch pipeline, graceful drain + resume, torn-ledger
// recovery to the previous snapshot, and shard-topology resume pinning.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/experiment.hpp"
#include "core/harness/child_process.hpp"
#include "core/harness/error.hpp"
#include "core/harness/run_ledger.hpp"
#include "mobility/synthesis.hpp"
#include "service/driver.hpp"
#include "service/locprivd.hpp"
#include "service/snapshot.hpp"
#include "service/wire.hpp"
#include "sim/faults/process_plan.hpp"
#include "util/strings.hpp"

namespace locpriv::service {
namespace {

namespace fs = std::filesystem;
using harness::RollingTail;

fs::path fresh_dir(const std::string& name) {
  // Per-pid: the chaos_locprivd aggregate runs these tests in a second
  // process concurrently with the ctest-discovered ones under `ctest -j`.
  const fs::path dir =
      fs::temp_directory_path() /
      ("locpriv_service_" + name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------- wire ----

TEST(ServiceWire, MessageRoundTripsThroughDecoder) {
  const std::vector<std::string> fields = {"submit", "7", "user_03", "2",
                                           "0x1.5p+5", "-0x1.2p+6", "1234"};
  const std::string encoded = wire::encode_message(fields);
  wire::FrameDecoder decoder;
  decoder.feed(encoded.data(), encoded.size());
  std::vector<std::string> decoded;
  ASSERT_TRUE(decoder.next(decoded));
  EXPECT_EQ(decoded, fields);
  EXPECT_FALSE(decoder.next(decoded));
  EXPECT_FALSE(decoder.corrupt());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(ServiceWire, DecoderReassemblesByteByByteAndBackToBack) {
  const std::vector<std::string> first = {"ping", "42"};
  const std::vector<std::string> second = {"pong", "42", "100", "2048"};
  const std::string stream =
      wire::encode_message(first) + wire::encode_message(second);
  wire::FrameDecoder decoder;
  std::vector<std::vector<std::string>> seen;
  std::vector<std::string> fields;
  for (const char byte : stream) {
    decoder.feed(&byte, 1);
    while (decoder.next(fields)) seen.push_back(fields);
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], first);
  EXPECT_EQ(seen[1], second);
}

TEST(ServiceWire, OversizedPayloadLengthLatchesCorrupt) {
  // An outer length far past the sanity cap must poison the stream, not
  // make the decoder wait forever for 4 GiB that will never arrive.
  const char bogus[4] = {'\xff', '\xff', '\xff', '\xff'};
  wire::FrameDecoder decoder;
  decoder.feed(bogus, sizeof(bogus));
  std::vector<std::string> fields;
  EXPECT_FALSE(decoder.next(fields));
  EXPECT_TRUE(decoder.corrupt());
}

std::string raw_u32(std::uint32_t value) {
  char bytes[4];
  std::memcpy(bytes, &value, sizeof(value));
  return std::string(bytes, sizeof(bytes));
}

TEST(ServiceWire, PayloadJustPastTheCapLatchesCorrupt) {
  // Exactly one byte over the 64 MiB cap: the decoder must refuse without
  // buffering toward the declared length.
  wire::FrameDecoder decoder;
  const std::string header = raw_u32(wire::kMaxPayloadBytes + 1);
  decoder.feed(header.data(), header.size());
  std::vector<std::string> fields;
  EXPECT_FALSE(decoder.next(fields));
  EXPECT_TRUE(decoder.corrupt());
}

TEST(ServiceWire, FieldCountPastTheCapLatchesCorrupt) {
  // A plausible outer length hiding an absurd inner field count (claiming
  // a million-plus fields in an 8-byte payload) is corruption, not data.
  const std::string payload =
      raw_u32(wire::kMaxFieldCount + 1) + raw_u32(0);
  const std::string message =
      raw_u32(static_cast<std::uint32_t>(payload.size())) + payload;
  wire::FrameDecoder decoder;
  decoder.feed(message.data(), message.size());
  std::vector<std::string> fields;
  EXPECT_FALSE(decoder.next(fields));
  EXPECT_TRUE(decoder.corrupt());
}

// -------------------------------------------------------- rolling tail ----

TEST(ServiceRollingTail, KeepsOnlyTheLastCapBytes) {
  RollingTail tail(8);
  tail.append("abcdefgh", 8);
  tail.append("XY", 2);
  EXPECT_EQ(tail.text(), "cdefghXY");
  EXPECT_EQ(tail.retained(), 8u);
  EXPECT_EQ(tail.total_seen(), 10u);
}

TEST(ServiceRollingTail, SingleAppendLargerThanCapIsTruncatedFromTheFront) {
  RollingTail tail(4);
  const std::string burst(1 << 20, 'x');
  tail.append(burst.data(), burst.size());
  tail.append("tail", 4);
  EXPECT_EQ(tail.text(), "tail");
  EXPECT_EQ(tail.total_seen(), burst.size() + 4);
  // A crash-looping shard can scream forever; memory stays at cap.
  EXPECT_LE(tail.retained(), tail.capacity());
}

TEST(ServiceRollingTail, OneLineFlattensNewlines) {
  RollingTail tail(64);
  tail.append("first\nsecond\n", 13);
  EXPECT_EQ(tail.one_line(), "first second");
}

TEST(ServiceRollingTail, ZeroCapRetainsNothingButCountsEverything) {
  RollingTail tail(0);
  tail.append("noisy shard", 11);
  EXPECT_EQ(tail.text(), "");
  EXPECT_EQ(tail.retained(), 0u);
  EXPECT_EQ(tail.total_seen(), 11u);
  EXPECT_EQ(tail.one_line(), "");
}

TEST(ServiceRollingTail, ExactCapAppendKeepsTheWholeChunk) {
  RollingTail tail(8);
  tail.append("12345678", 8);  // size == cap, the >= boundary.
  EXPECT_EQ(tail.text(), "12345678");
  tail.append("abcdefgh", 8);  // A second exact-cap chunk replaces it all.
  EXPECT_EQ(tail.text(), "abcdefgh");
  EXPECT_EQ(tail.retained(), 8u);
  EXPECT_EQ(tail.total_seen(), 16u);
}

TEST(ServiceRollingTail, ManySmallChunksWrapToTheSuffix) {
  RollingTail tail(16);
  std::string all;
  for (int i = 0; i < 9; ++i) {
    const std::string chunk = "chunk" + std::to_string(i) + ";";
    tail.append(chunk.data(), chunk.size());
    all += chunk;
  }
  EXPECT_EQ(tail.text(), all.substr(all.size() - 16));
  EXPECT_EQ(tail.retained(), 16u);
  EXPECT_EQ(tail.total_seen(), all.size());
}

// ------------------------------------------------------------ snapshot ----

ShardSnapshot sample_snapshot() {
  ShardSnapshot snapshot;
  snapshot.shard = 1;
  snapshot.seq = 3;
  snapshot.last_seq = 17;
  trace::TracePoint fix;
  fix.position.lat_deg = 39.9761234567891;  // Not representable in decimal.
  fix.position.lon_deg = 116.33071234567892;
  fix.timestamp_s = 1496641200;
  snapshot.users["007"].push_back(fix);
  fix.position.lat_deg = -0.1 + 0.2;  // Classic binary-vs-decimal residue.
  fix.timestamp_s += 60;
  snapshot.users["007"].push_back(fix);
  snapshot.users["012"] = {};
  return snapshot;
}

TEST(ServiceSnapshot, RoundTripsExactDoubles) {
  const ShardSnapshot original = sample_snapshot();
  const ShardSnapshot restored = parse_snapshot(encode_snapshot(original));
  EXPECT_EQ(restored.shard, original.shard);
  EXPECT_EQ(restored.seq, original.seq);
  EXPECT_EQ(restored.last_seq, original.last_seq);
  ASSERT_EQ(restored.users.size(), original.users.size());
  const auto& a = original.users.at("007");
  const auto& b = restored.users.at("007");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bitwise equality, not approximate: hexfloat must round-trip exactly
    // or restored shards would drift from the batch pipeline.
    EXPECT_EQ(a[i].position.lat_deg, b[i].position.lat_deg);
    EXPECT_EQ(a[i].position.lon_deg, b[i].position.lon_deg);
    EXPECT_EQ(a[i].timestamp_s, b[i].timestamp_s);
  }
}

TEST(ServiceSnapshot, FlippedBodyByteFailsTheChecksum) {
  std::string encoded = encode_snapshot(sample_snapshot());
  encoded[encoded.size() / 2] ^= 0x20;
  try {
    parse_snapshot(encoded);
    FAIL() << "corrupted snapshot parsed";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kResume);
  }
}

TEST(ServiceSnapshot, TruncatedBodyIsRefused) {
  const std::string encoded = encode_snapshot(sample_snapshot());
  try {
    parse_snapshot(encoded.substr(0, encoded.size() - 7));
    FAIL() << "truncated snapshot parsed";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kResume);
  }
}

TEST(ServiceSnapshot, MissingFileIsRefused) {
  try {
    load_snapshot("/nonexistent/locpriv/snapshot.dat");
    FAIL() << "missing snapshot loaded";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kResume);
  }
}

// ------------------------------------------------------------ failover ----

/// Small shared corpus: analyzer construction is the expensive part, so the
/// failover battery builds it once.
const core::PrivacyAnalyzer& test_analyzer() {
  static const core::PrivacyAnalyzer analyzer = [] {
    mobility::DatasetConfig dataset;
    dataset.user_count = 4;
    dataset.synthesis.days = 2;
    return core::PrivacyAnalyzer::from_synthetic(
        core::experiment_analyzer_config(), dataset);
  }();
  return analyzer;
}

ServiceOptions quick_options(unsigned shards) {
  ServiceOptions options;
  options.shards = shards;
  options.interval_s = 60;
  options.seed = core::kDatasetSeed;
  options.scale = "4u_t60";
  options.heartbeat = std::chrono::milliseconds(50);
  options.ping_timeout = std::chrono::milliseconds(400);
  options.term_grace = std::chrono::milliseconds(150);
  options.snapshot_interval = std::chrono::milliseconds(150);
  options.backoff_base = std::chrono::milliseconds(10);
  options.backoff_seed = 7;
  return options;
}

TrafficOptions quick_traffic() {
  TrafficOptions traffic;
  traffic.batch_size = 32;
  traffic.rounds = 1;
  return traffic;
}

void expect_parity(const core::PrivacyAnalyzer& analyzer,
                   const ServiceOptions& options,
                   const TrafficOptions& traffic,
                   const std::vector<std::vector<std::string>>& rows) {
  EXPECT_EQ(rows.size(), analyzer.user_count());
  const std::vector<std::string> mismatched =
      parity_mismatches(analyzer, options.interval_s, traffic, rows);
  EXPECT_TRUE(mismatched.empty())
      << mismatched.size() << " users diverged, first: "
      << (mismatched.empty() ? "" : mismatched.front());
}

TEST(ServiceFailover, HealthyRunMatchesBatchPipelineByteForByte) {
  const auto& analyzer = test_analyzer();
  const auto options = quick_options(2);
  const auto traffic = quick_traffic();
  LocprivService daemon(options, analyzer, fresh_dir("healthy"), false);
  const TrafficOutcome outcome = drive_traffic(daemon, analyzer, traffic);
  EXPECT_FALSE(outcome.interrupted);
  EXPECT_EQ(outcome.accepted, outcome.batches);
  expect_parity(analyzer, options, traffic, daemon.collect_reports());
  daemon.drain();
  EXPECT_EQ(daemon.stats().shard_deaths, 0);
  EXPECT_TRUE(daemon.quarantined_shards().empty());
  // Lossless admission never sheds; the offer ledger reconciles exactly.
  const ServiceStats& stats = daemon.stats();
  EXPECT_EQ(stats.batches_shed, 0u);
  EXPECT_EQ(stats.batches_offered,
            stats.batches_submitted + stats.batches_dropped);
  EXPECT_TRUE(daemon.shed_users().empty());
}

TEST(ServiceFailover, CrashedShardRespawnsFromSnapshotWithParity) {
  const auto& analyzer = test_analyzer();
  auto options = quick_options(2);
  options.fault_plan = sim::ProcessFaultPlan::parse("crash:1@shard0");
  options.fault_after_batches = 20;
  auto traffic = quick_traffic();
  traffic.pace = std::chrono::milliseconds(2);  // Let snapshots land first.
  LocprivService daemon(options, analyzer, fresh_dir("crash"), false);
  drive_traffic(daemon, analyzer, traffic);
  const auto rows = daemon.collect_reports();
  daemon.drain();
  EXPECT_GE(daemon.stats().shard_deaths, 1);
  EXPECT_GE(daemon.stats().respawns, 1);
  ASSERT_GE(daemon.stats().recoveries.size(), 1u);
  EXPECT_GT(daemon.stats().recoveries.front().latency_ms, 0.0);
  EXPECT_TRUE(daemon.quarantined_shards().empty());
  expect_parity(analyzer, options, traffic, rows);
}

TEST(ServiceFailover, HangingShardIsEscalatedAndRecovers) {
  const auto& analyzer = test_analyzer();
  auto options = quick_options(2);
  // The hang ignores SIGTERM; only the ping timeout -> grace -> SIGKILL
  // escalation can reclaim the shard.
  options.fault_plan = sim::ProcessFaultPlan::parse("hang:1@shard1");
  options.fault_after_batches = 10;
  auto traffic = quick_traffic();
  traffic.pace = std::chrono::milliseconds(1);
  LocprivService daemon(options, analyzer, fresh_dir("hang"), false);
  drive_traffic(daemon, analyzer, traffic);
  const auto rows = daemon.collect_reports();
  daemon.drain();
  EXPECT_GE(daemon.stats().shard_deaths, 1);
  ASSERT_GE(daemon.stats().recoveries.size(), 1u);
  EXPECT_TRUE(daemon.quarantined_shards().empty());
  expect_parity(analyzer, options, traffic, rows);
}

TEST(ServiceFailover, FlappingShardIsQuarantinedAndTheRestSurvive) {
  const auto& analyzer = test_analyzer();
  auto options = quick_options(2);
  options.max_respawns = 1;
  // Crashes every incarnation: one respawn is allowed, then quarantine.
  options.fault_plan = sim::ProcessFaultPlan::parse("crash@shard0");
  options.fault_after_batches = 1;
  const auto traffic = quick_traffic();
  const fs::path run_dir = fresh_dir("flap");
  LocprivService daemon(options, analyzer, run_dir, false);
  drive_traffic(daemon, analyzer, traffic);
  const auto rows = daemon.collect_reports();
  daemon.drain();
  ASSERT_EQ(daemon.quarantined_shards(),
            std::vector<std::string>{"shard0"});
  EXPECT_EQ(daemon.stats().shard_deaths, 2);  // Budget of 1 respawn + 1.
  // The journaled quarantine record names how the last incarnation died.
  std::ifstream in(run_dir / "ledger.jsonl", std::ios::binary);
  std::stringstream ledger;
  ledger << in.rdbuf();
  const harness::LedgerReplay replay = harness::replay_ledger(ledger.str());
  ASSERT_EQ(replay.quarantine.count("shard0"), 1u);
  const std::vector<std::string>& record = replay.quarantine.at("shard0");
  EXPECT_TRUE(std::any_of(record.begin(), record.end(),
                          [](const std::string& line) {
                            return line.find("killed by SIGSEGV") !=
                                   std::string::npos;
                          }))
      << util::join(record, " | ");
  // shard1's users still audit with full parity; shard0's are omitted.
  std::size_t shard1_users = 0;
  for (std::size_t i = 0; i < analyzer.user_count(); ++i)
    if (daemon.shard_of(analyzer.reference(i).user_id) == 1) ++shard1_users;
  EXPECT_EQ(rows.size(), shard1_users);
  std::vector<std::string> lost;
  for (std::size_t i = 0; i < analyzer.user_count(); ++i)
    if (daemon.shard_of(analyzer.reference(i).user_id) == 0)
      lost.push_back(analyzer.reference(i).user_id);
  EXPECT_TRUE(parity_mismatches(analyzer, options.interval_s, traffic, rows,
                                lost)
                  .empty());
}

TEST(ServiceFailover, DrainedRunResumesWithNoMetricDivergence) {
  const auto& analyzer = test_analyzer();
  const auto options = quick_options(2);
  const auto traffic = quick_traffic();
  const fs::path run_dir = fresh_dir("resume");

  // Leg 1: interrupted mid-schedule after ~half the batches, then drained.
  std::uint64_t sent = 0;
  {
    LocprivService daemon(options, analyzer, run_dir, false);
    const TrafficOutcome outcome =
        drive_traffic(daemon, analyzer, traffic, [&] { return ++sent > 40; });
    EXPECT_TRUE(outcome.interrupted);
    daemon.drain();  // Exit-7 path: snapshots journaled, dir resumable.
  }

  // Leg 2: resume replays the same deterministic schedule; everything the
  // snapshots already cover is deduped, the rest is applied exactly once.
  LocprivService resumed(options, analyzer, run_dir, true);
  std::uint64_t restored_total = 0;
  for (unsigned k = 0; k < options.shards; ++k)
    restored_total += resumed.restored_seq(k);
  EXPECT_GT(restored_total, 0u) << "resume did not restore any snapshot";
  const TrafficOutcome replay = drive_traffic(resumed, analyzer, traffic);
  EXPECT_GT(resumed.stats().batches_dropped, 0u) << "no resume dedupe hit";
  EXPECT_LT(replay.accepted, replay.batches);
  expect_parity(analyzer, options, traffic, resumed.collect_reports());
  resumed.drain();
}

TEST(ServiceFailover, TornLedgerTailFallsBackToPreviousSnapshot) {
  const auto& analyzer = test_analyzer();
  auto options = quick_options(1);
  // No cadence: the only snapshots are one taken mid-traffic and the drain's,
  // so the one the torn tail falls back to never covers the last batch.
  options.snapshot_interval = std::chrono::milliseconds(0);
  const auto traffic = quick_traffic();
  const fs::path run_dir = fresh_dir("torn");
  std::uint64_t last_submitted = 0;
  {
    LocprivService daemon(options, analyzer, run_dir, false);
    bool snapshotted = false;
    const auto snapshot_midway = [&] {
      if (!snapshotted && daemon.stats().batches_offered >= 40) {
        snapshotted = true;
        daemon.snapshot_now();
        while (daemon.stats().snapshots < 1) daemon.tick(std::chrono::milliseconds(1));
      }
      return false;
    };
    const TrafficOutcome outcome =
        drive_traffic(daemon, analyzer, traffic, snapshot_midway);
    ASSERT_TRUE(snapshotted);
    ASSERT_GT(outcome.batches, 40u);
    last_submitted = daemon.shard_load(0).submit_seq;
    daemon.drain();
    ASSERT_GE(daemon.stats().snapshots, 2u);
  }

  // Tear the ledger mid-way through its final line — the crash-window the
  // fsync'd single-write discipline leaves possible. RunLedger truncates
  // the torn record on reopen, so the last journaled snapshot becomes the
  // previous one, and the service must restore from *that*.
  const fs::path ledger = run_dir / "ledger.jsonl";
  std::ifstream in(ledger, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  in.close();
  const std::string text = content.str();
  const std::size_t last_line =
      text.rfind('\n', text.size() - 2);  // Start of the final record.
  ASSERT_NE(last_line, std::string::npos);
  const std::string torn =
      text.substr(0, last_line + 1 + (text.size() - last_line - 1) / 2);
  {
    // locpriv-lint: allow(raw-write) torn ledger tail planted on purpose.
    std::ofstream out(ledger, std::ios::binary | std::ios::trunc);
    out << torn;
  }

  LocprivService resumed(options, analyzer, run_dir, true);
  const std::uint64_t restored = resumed.restored_seq(0);
  EXPECT_GT(restored, 0u) << "previous snapshot was not restored after the torn tail";
  ASSERT_LT(restored, last_submitted);
  const TrafficOutcome replay = drive_traffic(resumed, analyzer, traffic);
  EXPECT_GT(replay.accepted, 0u);  // The torn-off suffix is re-applied.
  expect_parity(analyzer, options, traffic, resumed.collect_reports());
  resumed.drain();
}

TEST(ServiceFailover, MismatchedShardTopologyResumeIsRefused) {
  const auto& analyzer = test_analyzer();
  const auto traffic = quick_traffic();
  const fs::path run_dir = fresh_dir("topology");
  {
    LocprivService daemon(quick_options(2), analyzer, run_dir, false);
    std::uint64_t sent = 0;
    drive_traffic(daemon, analyzer, traffic, [&] { return ++sent > 10; });
    daemon.drain();
  }
  try {
    LocprivService resumed(quick_options(3), analyzer, run_dir, true);
    FAIL() << "resume under a different shard count was accepted";
  } catch (const Error& error) {
    // The user->shard mapping scatters under a different modulus; exit 6.
    EXPECT_EQ(error.code(), ErrorCode::kResume);
    EXPECT_EQ(error.exit_code(), 6);
  }
}

TEST(ServiceFailover, FreshRunRefusesADirectoryWithALedger) {
  const auto& analyzer = test_analyzer();
  const fs::path run_dir = fresh_dir("refuse");
  {
    LocprivService daemon(quick_options(2), analyzer, run_dir, false);
    daemon.drain();
  }
  try {
    LocprivService again(quick_options(2), analyzer, run_dir, false);
    FAIL() << "fresh run silently reused an existing ledger";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kResume);
  }
}

// ------------------------------------------------------------ overload ----

TEST(ServiceOverload, EwmaUpdateInitializesThenSmooths) {
  // First sample seeds the average regardless of prev.
  EXPECT_DOUBLE_EQ(ewma_update(999.0, 40.0, 0.2, false), 40.0);
  // Subsequent samples blend: 0.2 * 100 + 0.8 * 40 = 52.
  EXPECT_DOUBLE_EQ(ewma_update(40.0, 100.0, 0.2, true), 52.0);
  // A constant stream is a fixed point.
  EXPECT_DOUBLE_EQ(ewma_update(40.0, 40.0, 0.2, true), 40.0);
}

std::vector<trace::TracePoint> tiny_batch(int fixes, std::int64_t base_ts) {
  std::vector<trace::TracePoint> batch;
  for (int i = 0; i < fixes; ++i) {
    trace::TracePoint fix;
    fix.position.lat_deg = 39.9 + 0.001 * i;
    fix.position.lon_deg = 116.3 + 0.001 * i;
    fix.timestamp_s = base_ts + 60 * i;
    batch.push_back(fix);
  }
  return batch;
}

/// Ticks until `done` reports true; fails the test on a wall-clock budget.
void tick_until(LocprivService& daemon, const std::function<bool()>& done,
                std::chrono::seconds budget = std::chrono::seconds(20)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "service never reached the expected state";
    daemon.tick(std::chrono::milliseconds(10));
  }
}

TEST(ServiceOverload, WindowEdgeShedsSyntheticAndBlocksLossless) {
  const auto& analyzer = test_analyzer();
  auto options = quick_options(1);
  options.max_inflight_batches = 4;
  options.shed_policy = ShedPolicy::kRejectNew;
  // The first incarnation wedges (SIGTERM-ignoring) on its first batch, so
  // nothing acks and the credit window fills exactly.
  options.fault_plan = sim::ProcessFaultPlan::parse("hang:1@shard0");
  options.fault_after_batches = 1;
  LocprivService daemon(options, analyzer, fresh_dir("window_edge"), false);

  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(daemon.submit("user_w", tiny_batch(2, 1496641200 + 1000 * i),
                            /*may_shed=*/true),
              Admission::kAccepted);
  // Window exhausted: shed-eligible offers are rejected...
  EXPECT_EQ(daemon.submit("user_w", tiny_batch(2, 1496650000), true),
            Admission::kShed);
  // ...and a lossless offer whose caller gives up reports kBlocked without
  // entering the system.
  EXPECT_EQ(daemon.submit("user_w", tiny_batch(2, 1496660000), false,
                          [] { return true; }),
            Admission::kBlocked);
  EXPECT_GE(daemon.stats().blocked_waits, 1u);

  // A patient lossless offer blocks through wedge detection, SIGKILL,
  // respawn, and replay — then lands. Data is never shed on this path.
  EXPECT_EQ(daemon.submit("user_w", tiny_batch(2, 1496660000), false),
            Admission::kAccepted);
  daemon.drain();

  const ServiceStats& stats = daemon.stats();
  EXPECT_GE(stats.shard_deaths, 1);
  EXPECT_EQ(stats.shed_reject_new, 1u);
  EXPECT_EQ(stats.batches_shed, 1u);
  EXPECT_EQ(stats.batches_submitted, 5u);
  EXPECT_EQ(stats.batches_offered,
            stats.batches_submitted + stats.batches_dropped +
                stats.batches_shed);
  EXPECT_LE(stats.pending_ops_peak, options.max_inflight_batches + 4);
  const auto& loads = daemon.user_loads();
  ASSERT_EQ(loads.count("user_w"), 1u);
  EXPECT_EQ(loads.at("user_w").batches_offered, 6u);
  EXPECT_EQ(loads.at("user_w").batches_accepted, 5u);
  EXPECT_EQ(loads.at("user_w").batches_shed, 1u);
  EXPECT_EQ(daemon.shed_users(), std::vector<std::string>{"user_w"});
}

TEST(ServiceOverload, DropOldestEvictsUnsentBatchesWhileShardIsDown) {
  const auto& analyzer = test_analyzer();
  auto options = quick_options(1);
  options.max_inflight_batches = 2;
  options.shed_policy = ShedPolicy::kDropOldest;
  options.fault_plan = sim::ProcessFaultPlan::parse("crash:1@shard0");
  options.fault_after_batches = 1;
  // A long respawn backoff keeps the shard down while we queue into it.
  options.backoff_base = std::chrono::milliseconds(400);
  LocprivService daemon(options, analyzer, fresh_dir("drop_oldest"), false);

  EXPECT_EQ(daemon.submit("user_a", tiny_batch(2, 1496641200), true),
            Admission::kAccepted);
  // The child segfaults on that batch; wait for the supervisor to reap it.
  tick_until(daemon, [&] { return daemon.stats().shard_deaths >= 1; });

  // During backoff the sent cursor is rewound, so both retained batches are
  // unsent; the window (2) fills, and drop-oldest evicts the oldest unsent
  // batch to admit the newest.
  EXPECT_EQ(daemon.submit("user_b", tiny_batch(2, 1496650000), true),
            Admission::kAccepted);
  EXPECT_EQ(daemon.submit("user_c", tiny_batch(2, 1496660000), true),
            Admission::kAccepted);
  daemon.drain();

  const ServiceStats& stats = daemon.stats();
  EXPECT_EQ(stats.shed_drop_oldest, 1u);
  EXPECT_EQ(stats.batches_shed, 1u);
  EXPECT_EQ(stats.batches_submitted, 2u);  // user_a's batch was evicted.
  EXPECT_EQ(stats.batches_offered,
            stats.batches_submitted + stats.batches_dropped +
                stats.batches_shed);
  EXPECT_EQ(daemon.shed_users(), std::vector<std::string>{"user_a"});
  const ShardLoad load = daemon.shard_load(0);
  EXPECT_EQ(load.offered, 3u);
  EXPECT_EQ(load.accepted, 2u);
  EXPECT_EQ(load.shed, 1u);
}

TEST(ServiceOverload, ShedOffersConsumeSeqsSoResumeStaysAligned) {
  const auto& analyzer = test_analyzer();
  auto options = quick_options(1);
  options.max_inflight_batches = 2;
  options.shed_policy = ShedPolicy::kRejectNew;
  // The first incarnation wedges on its first batch, so nothing acks, the
  // window fills, and the shed below lands mid-schedule.
  options.fault_plan = sim::ProcessFaultPlan::parse("hang:1@shard0");
  options.fault_after_batches = 1;
  const fs::path run_dir = fresh_dir("shed_resume");

  {
    LocprivService daemon(options, analyzer, run_dir, false);
    EXPECT_EQ(daemon.submit("user_w", tiny_batch(2, 1496641200), true),
              Admission::kAccepted);  // seq 1 — wedges the child.
    EXPECT_EQ(daemon.submit("user_w", tiny_batch(2, 1496642200), true),
              Admission::kAccepted);  // seq 2 — window (2) now full.
    EXPECT_EQ(daemon.submit("user_w", tiny_batch(2, 1496643200), true),
              Admission::kShed);  // Shed, but must still consume seq 3.
    // A patient lossless offer blocks through wedge detection, SIGKILL,
    // respawn, and replay, then lands as seq 4.
    EXPECT_EQ(daemon.submit("user_w", tiny_batch(2, 1496644200), false),
              Admission::kAccepted);
    daemon.drain();  // Final snapshot watermark covers seq 4.
  }

  // Resume replays the same deterministic offer schedule. Because the shed
  // offer consumed seq 3, the restored watermark is 4 and every re-offer
  // dedupes. If sheds skipped seqs, the fourth offer would shift past the
  // watermark and the child would apply it a second time on top of the
  // snapshot that already holds it.
  options.fault_plan = sim::ProcessFaultPlan();
  LocprivService resumed(options, analyzer, run_dir, true);
  EXPECT_EQ(resumed.restored_seq(0), 4u);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(resumed.submit("user_w", tiny_batch(2, 1496641200 + 1000 * i),
                             true),
              Admission::kDeduped)
        << "offer " << i + 1 << " fell out of resume alignment";
  resumed.drain();
  const ServiceStats& stats = resumed.stats();
  EXPECT_EQ(stats.batches_submitted, 0u);  // Nothing re-applied on resume.
  EXPECT_EQ(stats.batches_dropped, 4u);
  EXPECT_EQ(stats.batches_shed, 0u);
}

TEST(ServiceOverload, DropOldestEvictsUntilTheByteCapAdmitsTheBatch) {
  const auto& analyzer = test_analyzer();
  auto options = quick_options(1);
  options.max_inflight_batches = 0;  // Only the byte cap governs admission.
  options.max_retained_bytes = 600;
  options.shed_policy = ShedPolicy::kDropOldest;
  options.fault_plan = sim::ProcessFaultPlan::parse("crash:1@shard0");
  options.fault_after_batches = 1;
  // A long respawn backoff keeps the shard down (everything unsent) while
  // we queue into it.
  options.backoff_base = std::chrono::milliseconds(400);
  // Cadence snapshots would truncate retained mid-test; push them out.
  options.snapshot_interval = std::chrono::milliseconds(60000);
  LocprivService daemon(options, analyzer, fresh_dir("evict_until_fits"),
                        false);

  EXPECT_EQ(daemon.submit("user_a", tiny_batch(2, 1496641200), true),
            Admission::kAccepted);
  tick_until(daemon, [&] { return daemon.stats().shard_deaths >= 1; });

  // Three small frames (~170 bytes each) sit under the 600-byte cap, then a
  // large one is admitted at the edge (the one-frame slack every admission
  // path has).
  EXPECT_EQ(daemon.submit("user_b", tiny_batch(2, 1496642200), true),
            Admission::kAccepted);
  EXPECT_EQ(daemon.submit("user_c", tiny_batch(2, 1496643200), true),
            Admission::kAccepted);
  EXPECT_EQ(daemon.submit("user_d", tiny_batch(20, 1496644200), true),
            Admission::kAccepted);
  // The next offer finds retained far past the cap. One eviction frees too
  // few bytes, so drop-oldest must keep evicting — all four unsent batches
  // go — before the incoming frame fits back under the cap.
  EXPECT_EQ(daemon.submit("user_e", tiny_batch(2, 1496645200), true),
            Admission::kAccepted);
  const ServiceStats& mid = daemon.stats();
  EXPECT_EQ(mid.shed_drop_oldest, 4u);
  EXPECT_EQ(mid.batches_shed, 4u);
  EXPECT_EQ(mid.batches_submitted, 1u);
  const ShardLoad load = daemon.shard_load(0);
  EXPECT_EQ(load.retained_batches, 1u);
  EXPECT_LT(load.retained_bytes, options.max_retained_bytes);
  daemon.drain();

  const ServiceStats& stats = daemon.stats();
  EXPECT_EQ(stats.batches_offered,
            stats.batches_submitted + stats.batches_dropped +
                stats.batches_shed);
  EXPECT_EQ(daemon.user_loads().at("user_d").batches_accepted, 0u);
  EXPECT_EQ(daemon.user_loads().at("user_e").batches_accepted, 1u);
}

TEST(ServiceOverload, RetainedByteCapForcesEarlySnapshotsAndHolds) {
  const auto& analyzer = test_analyzer();
  auto options = quick_options(1);
  options.max_inflight_batches = 0;  // Only the byte cap governs admission.
  options.max_retained_bytes = 16 * 1024;
  // Cadence snapshots would mask the cap; push them out of the run.
  options.snapshot_interval = std::chrono::milliseconds(60000);
  const auto traffic = quick_traffic();
  LocprivService daemon(options, analyzer, fresh_dir("byte_cap"), false);
  drive_traffic(daemon, analyzer, traffic);
  expect_parity(analyzer, options, traffic, daemon.collect_reports());
  daemon.drain();

  const ServiceStats& stats = daemon.stats();
  EXPECT_GE(stats.forced_snapshots, 1u);
  EXPECT_EQ(stats.batches_shed, 0u);  // Lossless blocking, never shedding.
  // The peak may overshoot by at most the one batch admitted at the edge.
  EXPECT_LE(stats.retained_bytes_peak, options.max_retained_bytes + 8 * 1024);
  EXPECT_EQ(daemon.shard_load(0).retained_bytes, 0u);  // Drain truncates all.
}

TEST(ServiceOverload, DegradedEwmaTriggersOutOfBandSnapshotPerEpisode) {
  const auto& analyzer = test_analyzer();
  auto options = quick_options(1);
  options.degraded_ms = std::chrono::milliseconds(50);
  LocprivService daemon(options, analyzer, fresh_dir("degraded"), false);

  daemon.inject_turnaround_sample_for_testing(0, 200.0);
  EXPECT_EQ(daemon.stats().degraded_events, 1u);
  EXPECT_TRUE(daemon.shard_load(0).degraded);
  // Staying slow extends the same episode; no double-count.
  daemon.inject_turnaround_sample_for_testing(0, 200.0);
  EXPECT_EQ(daemon.stats().degraded_events, 1u);
  // Recovery needs the EWMA below half the threshold (hysteresis)...
  for (int i = 0; i < 16; ++i)
    daemon.inject_turnaround_sample_for_testing(0, 0.0);
  EXPECT_FALSE(daemon.shard_load(0).degraded);
  // ...after which a new slow spell is a second episode.
  daemon.inject_turnaround_sample_for_testing(0, 400.0);
  EXPECT_EQ(daemon.stats().degraded_events, 2u);
  tick_until(daemon, [&] { return daemon.stats().snapshots >= 1u; });
  daemon.drain();
}

TEST(ServiceOverload, SlowEwmaRestartsTheShardThroughTheRespawnPath) {
  const auto& analyzer = test_analyzer();
  auto options = quick_options(1);
  options.slow_restart_ms = std::chrono::milliseconds(50);
  LocprivService daemon(options, analyzer, fresh_dir("slow_restart"), false);

  EXPECT_EQ(daemon.submit("user_s", tiny_batch(2, 1496641200), false),
            Admission::kAccepted);
  daemon.inject_turnaround_sample_for_testing(0, 500.0);
  EXPECT_EQ(daemon.stats().slow_restarts, 1u);
  tick_until(daemon, [&] {
    return daemon.stats().shard_deaths >= 1 && daemon.stats().respawns >= 1;
  });
  daemon.drain();
  // The restart rode the normal death/replay path: nothing was lost.
  EXPECT_EQ(daemon.stats().batches_submitted, 1u);
  EXPECT_EQ(daemon.stats().batches_shed, 0u);
  EXPECT_TRUE(daemon.quarantined_shards().empty());
}

}  // namespace
}  // namespace locpriv::service
