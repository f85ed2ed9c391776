// Fixture: the clean twin — the artifact goes through the atomic writer.
// Mentioning std::ofstream in this comment must not trigger the rule, and
// neither does a macro body: a directive is one token no rule looks inside.
#include <string>

#define LEGACY_SINK(path) std::ofstream(path)

#include "core/harness/atomic_file.hpp"

void publish_report(const std::string& path, const std::string& body) {
  locpriv::harness::write_file_atomic(path, body);
}
