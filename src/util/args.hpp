// Minimal command-line argument parser for the tools/ binaries.
// Supports `--flag value`, `--flag=value`, and boolean `--flag`; positional
// arguments are collected in order. Unknown flags are an error, so typos
// fail loudly instead of silently running a default experiment.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace locpriv::util {

/// Parsed command line.
class Args {
 public:
  /// Declares a value flag (e.g. "--users") with an optional default.
  void declare(const std::string& flag, std::string default_value);
  /// Declares a boolean flag (present/absent).
  void declare_bool(const std::string& flag);

  /// Parses argv[begin..argc). Throws Error(kUsage) on unknown flags,
  /// missing values, or a value supplied to a boolean flag.
  void parse(int argc, const char* const* argv, int begin = 1);

  /// Value of a declared value flag (default if not supplied).
  /// Throws std::runtime_error if the flag was never declared.
  const std::string& get(const std::string& flag) const;

  /// Integer/double/bool accessors with validation: a value that does not
  /// parse throws Error(kUsage).
  long long get_int(const std::string& flag) const;
  double get_double(const std::string& flag) const;
  bool get_bool(const std::string& flag) const;

  /// get_int() / get_double() that also require min <= value <= max (so a
  /// double must be finite); a value outside throws Error(kUsage).
  long long get_int(const std::string& flag, long long min, long long max) const;
  double get_double(const std::string& flag, double min, double max) const;

  /// True if the user explicitly supplied the flag.
  bool supplied(const std::string& flag) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;     // flag -> current value.
  std::map<std::string, bool> booleans_;          // flag -> present.
  std::map<std::string, bool> supplied_;
  std::vector<std::string> positional_;
};

}  // namespace locpriv::util
