// perfbench: one workload per run, timed from outside the library through
// each layer's public functions. Prints every metric by name with its unit
// and every gate's verdict, and writes them all, with the operation counts
// and computed digests, as one JSON report (run.py turns it into the
// benchmark's result line). Exits 1 when a correctness gate fails, 2 on a
// usage error.
//
//   perfbench --workload detect_sweep|exposure_ladder|serve_audit
//             --seed N --seconds S --trace 0|1 --out-dir DIR --report FILE
//             [--expected FILE] [--toy] [--perturb GATE]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.hpp"
#include "util/logging.hpp"

namespace {

using perfbench::Result;

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::map<std::string, Result::Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += quoted(name) + ": {\"value\": " + number(metric.value) +
           ", \"unit\": " + quoted(metric.unit) + "}";
  }
  return out + "}";
}

/// Everything one run produced: the result line's source, and what the
/// smoke test and re-pinning read.
void write_report(const std::string& path, const Result& result) {
  std::ofstream out(path);
  out << "{\"correct\": " << (result.correct() ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed
      << ", \"e2e\": " << metrics_json(result.e2e)
      << ", \"layers\": " << metrics_json(result.layers) << ", \"gates\": [";
  for (std::size_t i = 0; i < result.gates.size(); ++i)
    out << (i ? ", " : "") << "{\"name\": " << quoted(result.gates[i].name)
        << ", \"passed\": " << (result.gates[i].passed ? "true" : "false")
        << ", \"detail\": " << quoted(result.gates[i].detail) << "}";
  out << "], \"digests\": {";
  bool first = true;
  for (const auto& [key, value] : result.digests) {
    out << (first ? "" : ", ") << quoted(key) << ": " << quoted(value);
    first = false;
  }
  out << "}}\n";
  if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out-dir DIR --report FILE "
               "[--expected FILE] "
               "[--toy] [--perturb GATE]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--toy") {
      options.toy = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") options.workload = value;
    else if (arg == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") options.seconds = std::atoi(value.c_str());
    else if (arg == "--trace") options.trace = value == "1";
    else if (arg == "--out-dir") options.out_dir = value;
    else if (arg == "--report") report_path = value;
    else if (arg == "--expected") options.expected_path = value;
    else if (arg == "--perturb") options.perturb = value;
    else return usage(("unknown flag " + arg).c_str());
  }
  if (options.out_dir.empty()) return usage("--out-dir is required");
  if (report_path.empty()) return usage("--report is required");
  if (options.seconds < 1) return usage("--seconds must be at least 1");
  std::filesystem::create_directories(options.out_dir);
  locpriv::util::set_log_level(locpriv::util::LogLevel::kWarn);

  Result result;
  const double calib_before = perfbench::host_calib_ms();
  try {
    if (options.workload == "detect_sweep") {
      perfbench::run_detect_sweep(options, result);
    } else if (options.workload == "exposure_ladder") {
      perfbench::run_exposure_ladder(options, result);
    } else if (options.workload == "serve_audit") {
      perfbench::run_serve_audit(options, result);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 error.what());
    return 1;
  }
  const double calib_after = perfbench::host_calib_ms();
  result.set_layer("host.calib_ms", 0.5 * (calib_before + calib_after), "ms");
  result.set_e2e("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");

  std::printf("workload %s seed %llu seconds %d trace %d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.toy ? " (toy)" : "");
  std::printf("host.calib_ms before %.3f, after %.3f\n", calib_before,
              calib_after);
  for (const auto& [name, metric] : result.e2e)
    std::printf("%s = %.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  for (const auto& [name, metric] : result.layers)
    std::printf("  %s = %.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  for (const auto& gate : result.gates)
    std::printf("gate %s: %s (%s)\n", gate.name.c_str(),
                gate.passed ? "pass" : "FAIL", gate.detail.c_str());
  std::printf("attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  std::fflush(stdout);
  write_report(report_path, result);
  return result.correct() ? 0 : 1;
}
