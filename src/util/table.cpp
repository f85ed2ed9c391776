#include "util/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/expect.hpp"

namespace locpriv::util {

ConsoleTable::ConsoleTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  LOCPRIV_EXPECT(!headers_.empty());
}

void ConsoleTable::add_row(std::vector<std::string> cells) {
  LOCPRIV_EXPECT(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

void ConsoleTable::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  const auto print_row = [&](const std::vector<std::string>& row) {
    out << '|';
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << ' ' << row[c] << std::string(widths[c] - row[c].size(), ' ') << " |";
    }
    out << '\n';
  };

  print_row(headers_);
  out << '|';
  for (const std::size_t w : widths) out << std::string(w + 2, '-') << '|';
  out << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string ConsoleTable::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

}  // namespace locpriv::util
