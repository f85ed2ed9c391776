// Fixture: one raw-write violation (the ofstream), nothing else. The digit
// separators before it are part of a number, not a character literal, so
// the rule still sees the rest of the file.
#include <fstream>
#include <string>

constexpr long kReportBytes = 1'000'000;

void publish_report(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
}
