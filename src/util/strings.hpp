// Small string utilities shared by parsers and report writers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace locpriv::util {

/// Splits `text` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string_view> split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
bool ends_with(std::string_view text, std::string_view suffix);

/// Lower-cases ASCII letters.
std::string to_lower(std::string_view text);

/// Joins `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Parses a double; returns false (leaving `out` untouched) on any trailing
/// garbage or empty input instead of the partial-parse behaviour of strtod.
bool parse_double(std::string_view text, double& out);

/// Parses a signed 64-bit integer with the same strictness as parse_double.
bool parse_int64(std::string_view text, long long& out);

/// Formats `value` with `digits` digits after the decimal point.
std::string format_fixed(double value, int digits);

/// Formats a fraction in [0,1] as a percentage string like "27.5%".
std::string format_percent(double fraction, int digits = 1);

/// 64-bit FNV-1a. Shard routing, snapshot checksums and backoff jitter all
/// depend on its exact values, so it must never change.
std::uint64_t fnv1a(std::string_view text);

}  // namespace locpriv::util
