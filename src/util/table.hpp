// Fixed-width console table used by the bench binaries to print reproduced
// paper tables / figure series in a readable, diff-friendly layout.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace locpriv::util {

/// Accumulates rows of string cells and renders an aligned ASCII table.
/// Numeric cells should be pre-formatted by the caller (format_fixed etc.)
/// so the table stays a purely presentational component.
class ConsoleTable {
 public:
  /// Creates a table with the given column headers.
  explicit ConsoleTable(std::vector<std::string> headers);

  /// Appends one row; the row must have exactly as many cells as headers.
  void add_row(std::vector<std::string> cells);

  /// Number of data rows added so far.
  std::size_t row_count() const { return rows_.size(); }

  /// The column headers / accumulated rows, e.g. for CSV export of the
  /// same series the table renders.
  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Renders the table (headers, separator, rows) to `out`.
  void print(std::ostream& out) const;

  /// Renders to a string; convenient in tests.
  std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace locpriv::util
