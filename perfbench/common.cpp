#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/experiment.hpp"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---- Tracer ---------------------------------------------------------------

std::uint32_t Tracer::intern(const char* name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(name, id);
  return id;
}

void Tracer::begin(const char* name) {
  if (!on_) return;
  Span span;
  span.name = intern(name);
  if (open_.empty()) {
    span.op = ++next_op_;
  } else {
    span.parent = static_cast<std::int32_t>(open_.back());
    span.op = spans_[open_.back()].op;
  }
  open_.push_back(static_cast<std::uint32_t>(spans_.size()));
  span.start_ns = now_ns();
  spans_.push_back(span);
}

void Tracer::end() {
  if (!on_) return;
  spans_[open_.back()].end_ns = now_ns();
  open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  // Children run strictly inside their parent on one thread, so the time
  // they cover is the plain sum of their durations.
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const Span& span : spans_)
    if (span.parent >= 0)
      self[static_cast<std::size_t>(span.parent)] -= span.end_ns - span.start_ns;
  std::map<std::string, double> by_name;
  for (const std::string& name : names_) by_name[name] = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    by_name[names_[spans_[i].name]] += static_cast<double>(self[i]) * 1e-9;
  return by_name;
}

double Tracer::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "id,parent,op,name,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << ',' << span.parent << ',' << span.op << ','
        << names_[span.name] << ',' << span.start_ns << ',' << span.end_ns
        << '\n';
  }
  if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

// ---- Digest ---------------------------------------------------------------

void Digest::add(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::add_f64(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  add_u64(bits);
}

void Digest::add_str(const std::string& text) {
  add_u64(text.size());
  add(text.data(), text.size());
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buffer;
}

// ---- Result and gates -----------------------------------------------------

bool Result::correct() const {
  if (gates.empty()) return false;
  for (const Gate& gate : gates)
    if (!gate.passed) return false;
  return true;
}

Gates::Gates(const Options& options, Result& result)
    : options_(options), result_(result) {
  // expected.txt: "<workload> <scale> <seed|*> <key> <value>" per line,
  // where scale is "toy" or "s<seconds>" (the work depends on both).
  const std::string scale =
      options.toy ? std::string("toy")
                  : std::string("s").append(std::to_string(options.seconds));
  std::ifstream in(options.expected_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, fields_scale, seed, key, value;
    if (!(fields >> workload >> fields_scale >> seed >> key >> value)) continue;
    if (workload != options.workload) continue;
    if (fields_scale != scale) continue;
    pinned_[seed + "/" + key] = value;
  }
}

std::string Gates::pinned(const std::string& key, bool seed_specific) const {
  const std::string seed = seed_specific ? std::to_string(options_.seed) : "*";
  const auto it = pinned_.find(seed + "/" + key);
  return it == pinned_.end() ? "" : it->second;
}

bool Gates::perturbed(const std::string& gate) const {
  return options_.perturb == gate;
}

void Gates::record(const std::string& gate, bool passed, std::string detail) {
  result_.gates.push_back({gate, passed, std::move(detail)});
}

void Gates::expect_equal(const std::string& gate, std::string expected,
                         const std::string& actual) {
  if (perturbed(gate)) expected += "~";
  record(gate, expected == actual,
         "expected " + expected + ", got " + actual);
}

void Gates::expect_equal(const std::string& gate, std::uint64_t expected,
                         std::uint64_t actual) {
  if (perturbed(gate)) ++expected;
  record(gate, expected == actual,
         "expected " + std::to_string(expected) + ", got " +
             std::to_string(actual));
}

void Gates::expect_rows(const std::string& gate,
                        std::vector<std::vector<std::string>> expected,
                        const std::vector<std::vector<std::string>>& actual) {
  if (perturbed(gate) && !expected.empty() && !expected.back().empty())
    expected.back().back() += "~";
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < std::max(expected.size(), actual.size()); ++i)
    if (i >= expected.size() || i >= actual.size() || expected[i] != actual[i])
      ++mismatched;
  record(gate, mismatched == 0,
         std::to_string(mismatched) + " of " + std::to_string(expected.size()) +
             " rows differ");
}

void Gates::expect_pinned(const std::string& gate, const std::string& key,
                          bool seed_specific, const std::string& actual) {
  result_.digests[key] = actual;
  const std::string expected = pinned(key, seed_specific);
  if (expected.empty() && !perturbed(gate)) {
    record(gate, true, "not pinned for this seed; computed " + actual);
    return;
  }
  expect_equal(gate, expected, actual);
}

// ---- Corpus and setup -----------------------------------------------------

std::unique_ptr<core::PrivacyAnalyzer> build_analyzer(const Options& options,
                                                      int days, Tracer& tracer) {
  mobility::DatasetConfig config;
  config.seed = kDatasetSeed;
  config.user_count = options.toy ? 12 : 182;
  config.synthesis.days = days;
  mobility::SyntheticDataset dataset;
  {
    Scope span(tracer, "mobility.generate");
    dataset = mobility::generate_dataset(config);
  }
  Scope span(tracer, "core.analyzer");
  return std::make_unique<core::PrivacyAnalyzer>(
      core::experiment_analyzer_config(), std::move(dataset.users));
}

std::vector<std::size_t> late_starts(
    const std::vector<locpriv::trace::TracePoint>& points, std::size_t count,
    locpriv::stats::Rng& rng) {
  const std::size_t limit = points.size() / 12;
  std::size_t candidates = 0;
  for (std::size_t i = 1; i < limit; ++i)
    if (points[i].timestamp_s > points[i - 1].timestamp_s) ++candidates;
  if (candidates < count)
    throw std::runtime_error("trace too short for " + std::to_string(count) +
                             " distinct late starts");
  std::vector<std::size_t> starts;
  while (starts.size() < count) {
    const auto i = static_cast<std::size_t>(1 + rng.next_below(limit - 1));
    if (points[i].timestamp_s > points[i - 1].timestamp_s &&
        std::find(starts.begin(), starts.end(), i) == starts.end())
      starts.push_back(i);
  }
  return starts;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double median_setup(int repeats, const std::function<void()>& build) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    build();
    times.push_back(seconds_since(start));
  }
  return median(times);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double host_calib_ms() {
  // A fixed dependent integer/floating-point chain (~20 ms): no memory
  // traffic, so it tracks only the CPU time the host gives this process.
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    double acc = 0.0;
    for (int i = 0; i < 4000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += std::sqrt(static_cast<double>(x >> 11));
    }
    times.push_back(seconds_since(start) * 1e3);
    if (acc == 0.0) std::fprintf(stderr, "calib: impossible sum\n");
  }
  return median(times);
}

void emit_layers(const Tracer& tracer, Result& result) {
  for (const auto& [name, seconds] : tracer.self_seconds())
    result.set_layer(name + ".s", seconds, "s");
}

void emit_setup_layers(const Tracer& tracer, int repeats, Result& result) {
  for (const auto& [name, seconds] : tracer.self_seconds())
    result.set_layer(name + ".s", seconds / repeats, "s");
}

}  // namespace perfbench
