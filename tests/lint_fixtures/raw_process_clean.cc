// Clean: C++ members and class-qualified names that merely share a POSIX
// or libc spelling are not process-lifecycle calls or process exits.
// Whitespace around `.` does not break the member chain.
#include "stats/rng.hpp"

locpriv::stats::Rng derive(locpriv::stats::Rng& rng, locpriv::stats::Rng* ptr) {
  locpriv::stats::Rng child = rng.fork();
  child = ptr->fork();
  child = rng . fork();
  return child;
}

template <typename App>
void stop(App& app) {
  app.exit(0);
}
