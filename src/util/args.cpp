#include "util/args.hpp"

#include <stdexcept>

#include "core/harness/error.hpp"
#include "util/strings.hpp"

namespace locpriv::util {

namespace {

Error out_of_range(const std::string& flag, const std::string& min, const std::string& max,
                   const std::string& got) {
  return Error(ErrorCode::kUsage,
               "flag " + flag + " must be in [" + min + ", " + max + "], got '" + got + "'");
}

}  // namespace

void Args::declare(const std::string& flag, std::string default_value) {
  values_[flag] = std::move(default_value);
  supplied_[flag] = false;
}

void Args::declare_bool(const std::string& flag) {
  booleans_[flag] = false;
  supplied_[flag] = false;
}

void Args::parse(int argc, const char* const* argv, int begin) {
  for (int i = begin; i < argc; ++i) {
    std::string token = argv[i];
    if (!starts_with(token, "--")) {
      positional_.push_back(std::move(token));
      continue;
    }
    std::string flag = token;
    std::optional<std::string> inline_value;
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      flag = token.substr(0, eq);
      inline_value = token.substr(eq + 1);
    }
    if (booleans_.contains(flag)) {
      if (inline_value) throw Error(ErrorCode::kUsage, "boolean flag takes no value: " + flag);
      booleans_[flag] = true;
      supplied_[flag] = true;
      continue;
    }
    const auto it = values_.find(flag);
    if (it == values_.end()) throw Error(ErrorCode::kUsage, "unknown flag: " + flag);
    if (inline_value) {
      it->second = *inline_value;
    } else {
      if (i + 1 >= argc) throw Error(ErrorCode::kUsage, "missing value for flag: " + flag);
      it->second = argv[++i];
    }
    supplied_[flag] = true;
  }
}

const std::string& Args::get(const std::string& flag) const {
  const auto it = values_.find(flag);
  if (it == values_.end()) throw std::runtime_error("undeclared flag: " + flag);
  return it->second;
}

long long Args::get_int(const std::string& flag) const {
  long long value = 0;
  if (!parse_int64(get(flag), value))
    throw Error(ErrorCode::kUsage,
                "flag " + flag + " expects an integer, got '" + get(flag) + "'");
  return value;
}

double Args::get_double(const std::string& flag) const {
  double value = 0.0;
  if (!parse_double(get(flag), value))
    throw Error(ErrorCode::kUsage,
                "flag " + flag + " expects a number, got '" + get(flag) + "'");
  return value;
}

long long Args::get_int(const std::string& flag, long long min, long long max) const {
  const long long value = get_int(flag);
  if (value < min || value > max)
    throw out_of_range(flag, std::to_string(min), std::to_string(max), get(flag));
  return value;
}

double Args::get_double(const std::string& flag, double min, double max) const {
  const double value = get_double(flag);
  if (!(value >= min && value <= max))  // also rejects NaN
    throw out_of_range(flag, format_fixed(min, 0), format_fixed(max, 0), get(flag));
  return value;
}

bool Args::get_bool(const std::string& flag) const {
  const auto it = booleans_.find(flag);
  if (it == booleans_.end()) throw std::runtime_error("undeclared flag: " + flag);
  return it->second;
}

bool Args::supplied(const std::string& flag) const {
  const auto it = supplied_.find(flag);
  return it != supplied_.end() && it->second;
}

}  // namespace locpriv::util
