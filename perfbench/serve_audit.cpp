// serve_audit: the lossless locprivd corpus on 2 shards, batch 64. The
// benchmark runs the drive_traffic round-robin schedule itself, so it can
// time submit() and tick() separately, and interleaves 8 collect_reports()
// calls at evenly spaced points, a snapshot checkpoint after every second
// report, and drain() last. The loop is closed: a submit blocks for window
// credit, so the write path (encode -> pipe -> decode/apply, snapshots) and
// the read path (reports) each get their own metric.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common.hpp"
#include "core/harness/file_ops.hpp"
#include "service/driver.hpp"
#include "service/locprivd.hpp"
#include "service/snapshot.hpp"
#include "service/wire.hpp"

namespace perfbench {

namespace {

namespace service = locpriv::service;
using locpriv::core::PrivacyAnalyzer;
using locpriv::trace::TracePoint;

constexpr unsigned kShards = 2;
constexpr std::size_t kBatch = 64;
constexpr int kReports = 8;
/// Corpus days per requested second: --seconds 20 gives 11 days, whose
/// ingest alone lasts >= 5 s on the reference host (4-vCPU KVM, Release).
constexpr double kDaysPerSecond = 0.55;
/// collect_reports() and drain() wait for shard replies in 20-ms ticks.
constexpr double kTickQuantumMs = 20.0;

struct Batch {
  std::size_t user = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// drive_traffic's round-robin schedule (one round), starting at a seeded
/// user. Every user's fixes still arrive in order, so the final report is
/// the same as the batch reference for any start.
std::vector<Batch> make_schedule(const PrivacyAnalyzer& analyzer,
                                 std::uint64_t seed) {
  const std::size_t users = analyzer.user_count();
  const std::size_t first = seed % users;
  std::vector<std::size_t> cursor(users, 0);
  std::vector<Batch> schedule;
  bool pending = true;
  while (pending) {
    pending = false;
    for (std::size_t i = 0; i < users; ++i) {
      const std::size_t u = (first + i) % users;
      const std::size_t size = analyzer.reference(u).points.size();
      if (cursor[u] >= size) continue;
      pending = true;
      const std::size_t take = std::min(kBatch, size - cursor[u]);
      schedule.push_back({u, cursor[u], cursor[u] + take});
      cursor[u] += take;
    }
  }
  return schedule;
}

/// The workload models a tmpfs run directory, where fsync costs nothing,
/// but its run directory has to live in the checkout: snapshot and ledger
/// publishes skip the disk flush and pass everything else through. On a
/// shared virtual disk the flush was the largest source of run-to-run
/// spread. Installed process-wide, so the forked shards use it too.
class TmpfsFileOps : public locpriv::harness::RealFileOps {
 public:
  int fsync(int) override { return 0; }
  int fdatasync(int) override { return 0; }
};

service::ServiceOptions service_options() {
  service::ServiceOptions options;
  options.shards = kShards;
  options.seed = kDatasetSeed;
  options.scale = "perfbench";
  options.snapshot_interval = std::chrono::milliseconds(0);
  return options;
}

std::uintmax_t file_bytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

struct Report {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::size_t> submitted;  ///< Per-user fixes submitted so far.
};

struct Serve {
  std::vector<Report> reports;
  double wall_s = 0.0;
  double ingest_s = 0.0;   ///< Inside submit() + tick() of the ingest loop.
  double report_s = 0.0;
  double snapshot_s = 0.0;
  double tick_quanta = 0.0;  ///< Whole 20-ms ticks of the reports and drain.
  double blocked_s = 0.0;  ///< Inside submits that waited for credit.
  double ewma_ms = 0.0;    ///< Mean over report points and shards.
  std::uint64_t fixes = 0;
  std::uint64_t deduped = 0;
  std::uint64_t shed = 0;
  std::uint64_t blocked = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t snapshot_fixes = 0;
  int checkpoints = 0;
  service::ServiceStats stats;
};

/// The measured phase: ingest with interleaved reports and checkpoints,
/// then drain. Spans: serve.batch (submit + tick), service.report,
/// service.snapshot, service.drain.
Serve run_serve(service::LocprivService& daemon, const PrivacyAnalyzer& analyzer,
                const std::vector<Batch>& schedule, const std::string& run_dir,
                Tracer& tracer) {
  Serve serve;
  std::vector<std::size_t> submitted(analyzer.user_count(), 0);
  std::size_t next_report = 1;
  std::vector<TracePoint> fixes;
  const auto start = Clock::now();
  for (std::size_t b = 0; b < schedule.size(); ++b) {
    const Batch& batch = schedule[b];
    const auto& reference = analyzer.reference(batch.user);
    fixes.assign(reference.points.begin() + static_cast<std::ptrdiff_t>(batch.begin),
                 reference.points.begin() + static_cast<std::ptrdiff_t>(batch.end));
    {
      Scope root(tracer, "serve.batch");
      const std::uint64_t waits = daemon.stats().blocked_waits;
      const auto submit_start = Clock::now();
      service::Admission admission;
      {
        Scope span(tracer, "service.submit");
        admission = daemon.submit(reference.user_id, fixes);
      }
      const double submit_s = seconds_since(submit_start);
      if (daemon.stats().blocked_waits != waits) serve.blocked_s += submit_s;
      {
        Scope span(tracer, "service.tick");
        daemon.tick(std::chrono::milliseconds(0));
      }
      serve.ingest_s += seconds_since(submit_start);
      switch (admission) {
        case service::Admission::kAccepted:
          serve.fixes += fixes.size();
          break;
        case service::Admission::kDeduped: ++serve.deduped; break;
        case service::Admission::kShed: ++serve.shed; break;
        case service::Admission::kBlocked: ++serve.blocked; break;
      }
    }
    submitted[batch.user] = batch.end;

    // Report k follows batch round(k * B / 8); a checkpoint follows every
    // second report.
    while (next_report <= static_cast<std::size_t>(kReports) &&
           b + 1 == (next_report * schedule.size() + kReports / 2) / kReports) {
      for (unsigned s = 0; s < kShards; ++s)
        serve.ewma_ms += daemon.shard_load(s).ewma_ms / (kShards * kReports);
      const auto report_start = Clock::now();
      {
        Scope span(tracer, "service.report");
        serve.reports.push_back({daemon.collect_reports(), submitted});
      }
      const double report_s = seconds_since(report_start);
      serve.report_s += report_s;
      serve.tick_quanta += std::floor(report_s * 1e3 / kTickQuantumMs);
      if (next_report % 2 == 0) {
        const auto snapshot_start = Clock::now();
        {
          Scope span(tracer, "service.snapshot");
          const std::uint64_t before = daemon.stats().snapshots;
          daemon.snapshot_now();
          while (daemon.stats().snapshots < before + kShards)
            daemon.tick(std::chrono::milliseconds(1));
        }
        serve.snapshot_s += seconds_since(snapshot_start);
        ++serve.checkpoints;
        for (unsigned s = 0; s < kShards; ++s)
          serve.snapshot_bytes += file_bytes(
              run_dir + "/" + service::LocprivService::shard_name(s) + ".snap." +
              std::to_string(serve.checkpoints) + ".dat");
        for (const std::size_t n : submitted) serve.snapshot_fixes += n;
      }
      ++next_report;
    }
  }
  const auto drain_start = Clock::now();
  {
    Scope span(tracer, "service.drain");
    daemon.drain();
  }
  serve.tick_quanta += std::floor(seconds_since(drain_start) * 1e3 / kTickQuantumMs);
  serve.wall_s = seconds_since(start);
  serve.stats = daemon.stats();
  return serve;
}

/// A fresh run directory under the output directory.
std::string fresh_run_dir(const Options& options, int index) {
  const std::string dir = options.out_dir + "/serve-run-" +
                          std::to_string(::getpid()) + "-" + std::to_string(index);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Expected rows of one interleaved report: the batch pipeline over each
/// user's submitted prefix.
std::vector<std::vector<std::string>> reference_rows(
    const PrivacyAnalyzer& analyzer, std::int64_t interval_s,
    const std::vector<std::size_t>& submitted) {
  std::vector<std::vector<std::string>> rows;
  for (std::size_t u = 0; u < analyzer.user_count(); ++u) {
    if (submitted[u] == 0) continue;
    const auto& reference = analyzer.reference(u);
    const std::vector<TracePoint> prefix(
        reference.points.begin(),
        reference.points.begin() + static_cast<std::ptrdiff_t>(submitted[u]));
    rows.push_back(service::exposure_fields(
        reference.user_id, interval_s,
        analyzer.evaluate_collected(u, interval_s, prefix)));
  }
  return rows;
}

/// Encode and decode cost of the submit frames for the workload's own
/// batches, built exactly as LocprivService::submit builds them. Batches go
/// in groups of 1024 so the frames never all sit in memory at once; each
/// group's stream is decoded in 64-KiB reads, as the parent reads a pipe.
void measure_wire(const PrivacyAnalyzer& analyzer,
                  const std::vector<Batch>& schedule, Result& result) {
  constexpr std::size_t kGroup = 1024;
  constexpr std::size_t kRead = 65536;
  double encode_s = 0.0;
  double decode_s = 0.0;
  double fixes = 0.0;
  double bytes = 0.0;
  std::size_t decoded = 0;
  std::vector<std::string> frames;
  std::vector<std::string> fields;
  for (std::size_t first = 0; first < schedule.size(); first += kGroup) {
    const std::size_t last = std::min(schedule.size(), first + kGroup);
    frames.clear();
    const auto encode_start = Clock::now();
    for (std::size_t b = first; b < last; ++b) {
      const Batch& batch = schedule[b];
      const auto& reference = analyzer.reference(batch.user);
      fields.clear();
      fields.reserve(4 + (batch.end - batch.begin) * 3);
      fields.push_back(service::wire::kCmdSubmit);
      fields.push_back(std::to_string(b + 1));
      fields.push_back(reference.user_id);
      fields.push_back(std::to_string(batch.end - batch.begin));
      for (std::size_t i = batch.begin; i < batch.end; ++i) {
        const TracePoint& fix = reference.points[i];
        fields.push_back(service::format_coord(fix.position.lat_deg));
        fields.push_back(service::format_coord(fix.position.lon_deg));
        fields.push_back(std::to_string(fix.timestamp_s));
      }
      frames.push_back(service::wire::encode_message(fields));
    }
    encode_s += seconds_since(encode_start);
    std::string stream;
    for (std::size_t b = first; b < last; ++b) {
      fixes += static_cast<double>(schedule[b].end - schedule[b].begin);
      bytes += static_cast<double>(frames[b - first].size());
      stream += frames[b - first];
    }
    const auto decode_start = Clock::now();
    service::wire::FrameDecoder decoder;
    for (std::size_t offset = 0; offset < stream.size(); offset += kRead) {
      decoder.feed(stream.data() + offset, std::min(kRead, stream.size() - offset));
      while (decoder.next(fields)) ++decoded;
    }
    decode_s += seconds_since(decode_start);
  }
  if (decoded != schedule.size())
    std::fprintf(stderr, "wire: decoded %zu of %zu frames\n", decoded, schedule.size());
  result.set_layer("service.encode.ns_per_fix", encode_s * 1e9 / fixes, "ns");
  result.set_layer("service.encode.bytes_per_fix", bytes / fixes, "bytes");
  result.set_layer("service.decode.ns_per_fix", decode_s * 1e9 / fixes, "ns");
}

/// Parse and re-encode cost of the final (drain) snapshots; the re-encode
/// must reproduce each file byte for byte.
bool measure_snapshot_codec(const std::string& run_dir, std::uint64_t drain_seq,
                            Result& result) {
  double parse_s = 0.0;
  double encode_s = 0.0;
  double fixes = 0.0;
  bool identical = true;
  for (unsigned s = 0; s < kShards; ++s) {
    std::string text;
    const std::string path = run_dir + "/" + service::LocprivService::shard_name(s) +
                             ".snap." + std::to_string(drain_seq) + ".dat";
    if (!locpriv::harness::read_file_through_ops(path, text)) return false;
    auto start = Clock::now();
    const service::ShardSnapshot snapshot = service::parse_snapshot(text);
    parse_s += seconds_since(start);
    start = Clock::now();
    const std::string again = service::encode_snapshot(snapshot);
    encode_s += seconds_since(start);
    fixes += static_cast<double>(snapshot.fix_count());
    identical = identical && again == text;
  }
  result.set_layer("service.snapshot_parse.ns_per_fix", parse_s * 1e9 / fixes, "ns");
  result.set_layer("service.snapshot_encode.ns_per_fix", encode_s * 1e9 / fixes, "ns");
  return identical;
}

std::string rows_digest(const std::vector<Report>& reports) {
  Digest digest;
  for (const Report& report : reports)
    for (const auto& row : report.rows)
      for (const std::string& field : row) digest.add_str(field);
  return digest.hex();
}

}  // namespace

void run_serve_audit(const Options& options, Result& result) {
  TmpfsFileOps tmpfs;
  const locpriv::harness::ScopedFileOps scoped(&tmpfs);
  Tracer setup_tracer(options.trace);
  const int days =
      options.toy ? 1
                  : std::max(1, static_cast<int>(std::lround(
                                    options.seconds * kDaysPerSecond)));
  const service::ServiceOptions service_opts = service_options();
  std::unique_ptr<PrivacyAnalyzer> owned;
  std::unique_ptr<service::LocprivService> daemon;
  std::vector<std::string> run_dirs;
  const int repeats = 3;
  const double setup_s = median_setup(repeats, [&] {
    daemon.reset();
    owned.reset();  // One corpus alive at a time, as for a real user.
    owned = build_analyzer(options, days, setup_tracer);
    run_dirs.push_back(fresh_run_dir(options, static_cast<int>(run_dirs.size())));
    Scope span(setup_tracer, "service.spawn");
    daemon = std::make_unique<service::LocprivService>(
        service_opts, *owned, run_dirs.back(), false);
  });
  const PrivacyAnalyzer& analyzer = *owned;
  const std::vector<Batch> schedule = make_schedule(analyzer, options.seed);

  Tracer off(false);
  const Serve serve = run_serve(*daemon, analyzer, schedule, run_dirs.back(), off);
  daemon.reset();
  result.attempted = schedule.size() + kReports + serve.checkpoints + 1;
  result.failed = serve.deduped + serve.shed + serve.blocked;
  result.set_e2e("setup_s", setup_s, "s");
  result.set_e2e("wall_s", serve.wall_s, "s");
  result.set_e2e("fixes_per_s", static_cast<double>(serve.fixes) / serve.ingest_s, "1/s");
  result.set_e2e("report_ms", serve.report_s * 1e3 / kReports, "ms");
  result.set_e2e("snapshot_ms", serve.snapshot_s * 1e3 / serve.checkpoints, "ms");

  Gates gates(options, result);
  const std::int64_t interval_s = service_opts.interval_s;
  service::TrafficOptions traffic;
  traffic.batch_size = kBatch;
  const auto& final_rows = serve.reports.back().rows;
  gates.expect_equal("serve.final_parity", 0,
                     service::parity_mismatches(analyzer, interval_s, traffic,
                                                final_rows)
                         .size());
  // The reports before the final one, against the batch pipeline over each
  // user's submitted prefix.
  std::vector<std::vector<std::string>> expected;
  std::vector<std::vector<std::string>> actual;
  for (std::size_t k = 0; k + 1 < serve.reports.size(); ++k) {
    const Report& report = serve.reports[k];
    for (auto& row : reference_rows(analyzer, interval_s, report.submitted))
      expected.push_back(std::move(row));
    actual.insert(actual.end(), report.rows.begin(), report.rows.end());
  }
  gates.expect_rows("serve.report_parity", std::move(expected), actual);
  const service::ServiceStats& stats = serve.stats;
  gates.expect_equal("serve.clean", 0,
                     serve.deduped + serve.shed + serve.blocked +
                         stats.batches_shed + stats.batches_dropped +
                         stats.snapshots_shed +
                         static_cast<std::uint64_t>(stats.shard_deaths) +
                         static_cast<std::uint64_t>(stats.respawns));
  std::uint64_t total_fixes = 0;
  for (std::size_t u = 0; u < analyzer.user_count(); ++u)
    total_fixes += analyzer.reference(u).points.size();
  gates.expect_equal("serve.accounting", total_fixes, stats.fixes_submitted);

  if (options.trace) {
    // Traced rerun on a fresh service: same schedule, same reports.
    run_dirs.push_back(fresh_run_dir(options, static_cast<int>(run_dirs.size())));
    daemon = std::make_unique<service::LocprivService>(
        service_opts, analyzer, run_dirs.back(), false);
    Tracer tracer(true);
    const Serve traced = run_serve(*daemon, analyzer, schedule, run_dirs.back(), tracer);
    daemon.reset();
    gates.expect_equal("trace.reproduces", rows_digest(serve.reports),
                       rows_digest(traced.reports));
    result.set_layer("trace.overhead_s", traced.wall_s - serve.wall_s, "s");
    emit_layers(tracer, result);
    emit_setup_layers(setup_tracer, repeats, result);
    result.set_layer("service.submit.calls", static_cast<double>(schedule.size()), "count");
    result.set_layer("service.submit.blocked_waits",
                     static_cast<double>(traced.stats.blocked_waits), "count");
    result.set_layer("service.submit.blocked_s", traced.blocked_s, "s");
    result.set_layer("service.ack_ewma_ms", traced.ewma_ms, "ms");
    result.set_layer("service.report.calls", kReports, "count");
    result.set_layer("service.tick_quanta", traced.tick_quanta, "count");
    std::size_t rows = 0;
    for (const Report& report : traced.reports) rows += report.rows.size();
    result.set_layer("service.report.rows", static_cast<double>(rows), "count");
    result.set_layer("service.snapshot.calls", traced.checkpoints, "count");
    result.set_layer("service.snapshot.bytes",
                     static_cast<double>(traced.snapshot_bytes), "bytes");
    result.set_layer("service.snapshot.bytes_per_fix",
                     static_cast<double>(traced.snapshot_bytes) /
                         static_cast<double>(traced.snapshot_fixes),
                     "bytes");
    result.set_layer("service.retained_bytes_peak",
                     static_cast<double>(traced.stats.retained_bytes_peak), "bytes");
    measure_wire(analyzer, schedule, result);
    gates.expect_equal(
        "serve.snapshot_roundtrip", 1,
        measure_snapshot_codec(run_dirs.back(),
                               static_cast<std::uint64_t>(traced.checkpoints) + 1,
                               result)
            ? 1
            : 0);
    tracer.write_csv(options.out_dir + "/serve_audit-seed" +
                     std::to_string(options.seed) + ".spans.csv");
  }
  for (const std::string& dir : run_dirs) std::filesystem::remove_all(dir);
}

}  // namespace perfbench
