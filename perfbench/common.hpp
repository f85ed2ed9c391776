// Shared plumbing for the perfbench workloads: run options, the span
// tracer, correctness gates, metric collection, and the host-noise probe.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "mobility/synthesis.hpp"
#include "stats/rng.hpp"
#include "trace/trajectory.hpp"

namespace perfbench {

namespace core = locpriv::core;
namespace mobility = locpriv::mobility;

using Clock = std::chrono::steady_clock;

/// Dataset seed of every workload (the paper-scale corpus, as in the
/// paper benches). The workload seed only varies the workload's inputs.
inline constexpr std::uint64_t kDatasetSeed = 20170605;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool toy = false;             ///< Tiny corpus for the smoke test.
  std::string out_dir;          ///< Spans, reports and run directories.
  std::string expected_path;    ///< Pinned digests (expected.txt).
  std::string perturb;          ///< Gate whose expected value is perturbed.
};

double seconds_since(Clock::time_point start);

/// In-memory span recorder. Spans nest on one thread: a span's parent is
/// the innermost span open when it began, and every span inherits the
/// operation id of the root span it runs under. When tracing is off,
/// begin/end cost one branch.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Opens a span; a root span (nothing open) starts a new operation id.
  void begin(const char* name);
  void end();

  /// Adds `delta` to a named counter recorded at a span boundary.
  void count(const char* name, double delta) {
    if (on_) counters_[name] += delta;
  }

  /// Self seconds per span name: duration minus the time child spans
  /// cover.
  std::map<std::string, double> self_seconds() const;
  double counter(const std::string& name) const;

  /// Writes every span as CSV (id,parent,op,name,start_ns,end_ns).
  void write_csv(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::uint32_t intern(const char* name);

  bool on_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::map<std::string, double> counters_;
  std::uint64_t next_op_ = 0;
};

/// RAII span; a no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
    tracer_.begin(name);
  }
  ~Scope() { tracer_.end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
};

/// 64-bit FNV-1a over result records, printed as 16 hex digits.
class Digest {
 public:
  void add(const void* data, std::size_t size);
  void add_u64(std::uint64_t value) { add(&value, sizeof(value)); }
  void add_f64(double value);
  void add_str(const std::string& text);
  std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// What one run measured and checked.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  struct Gate {
    std::string name;
    bool passed = false;
    std::string detail;
  };

  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  std::vector<Gate> gates;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::string> digests;  ///< Computed, for re-pinning.

  void set_e2e(const std::string& name, double value, const std::string& unit) {
    e2e[name] = {value, unit};
  }
  void set_layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = {value, unit};
  }
  bool correct() const;
};

/// Correctness gates with pinned or computed expected values. `--perturb
/// NAME` alters the expected value of gate NAME, which must then fail —
/// the smoke test's proof that every gate can fail.
class Gates {
 public:
  Gates(const Options& options, Result& result);

  void expect_equal(const std::string& gate, std::string expected,
                    const std::string& actual);
  void expect_equal(const std::string& gate, std::uint64_t expected,
                    std::uint64_t actual);
  /// Row-by-row comparison (service reports vs the batch reference).
  void expect_rows(const std::string& gate,
                   std::vector<std::vector<std::string>> expected,
                   const std::vector<std::vector<std::string>>& actual);
  /// Compares `actual` with the value pinned in expected.txt for `key`
  /// at this scale (and seed, when `seed_specific`). With nothing pinned
  /// the gate passes and says so.
  void expect_pinned(const std::string& gate, const std::string& key,
                     bool seed_specific, const std::string& actual);

 private:
  std::string pinned(const std::string& key, bool seed_specific) const;
  bool perturbed(const std::string& gate) const;
  void record(const std::string& gate, bool passed, std::string detail);

  const Options& options_;
  Result& result_;
  std::map<std::string, std::string> pinned_;
};

/// Runs `build` `repeats` times and returns the median wall seconds; the
/// last build's product is what the workload measures.
double median_setup(int repeats, const std::function<void()>& build);

/// Generates the corpus (182 users, or 12 with --toy, over `days` days)
/// and builds the analyzer over it, spanned as mobility.generate and
/// core.analyzer.
std::unique_ptr<core::PrivacyAnalyzer> build_analyzer(const Options& options,
                                                      int days, Tracer& tracer);

/// `count` distinct fix indexes of `points`, drawn from the first twelfth of
/// the trace (the first day of the paper-scale corpus), none of them 0 and
/// each later in time than the fix before it. A trace or a decimation that
/// starts at one of them therefore begins at a fix of its own: passes that
/// start there never repeat an input. Throws when the trace is too short.
std::vector<std::size_t> late_starts(
    const std::vector<locpriv::trace::TracePoint>& points, std::size_t count,
    locpriv::stats::Rng& rng);

/// Median of a sample (copied).
double median(std::vector<double> values);

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mb();

/// Host-noise probe: median time of a fixed compute kernel owned by the
/// benchmark, in ms. Timed before and after each run; a diagnostic only.
double host_calib_ms();

/// Copies the tracer's self times into per-layer metrics, `<span>.s` for
/// every span name.
void emit_layers(const Tracer& tracer, Result& result);

/// Setup spans (mobility.generate, core.analyzer, service.spawn) as mean
/// seconds per setup repetition.
void emit_setup_layers(const Tracer& tracer, int repeats, Result& result);

void run_detect_sweep(const Options& options, Result& result);
void run_exposure_ladder(const Options& options, Result& result);
void run_serve_audit(const Options& options, Result& result);

}  // namespace perfbench
