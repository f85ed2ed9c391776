#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "util/logging.hpp"

namespace locpriv::util {

namespace {

unsigned resolve_threads(std::size_t count, unsigned max_threads) {
  unsigned threads =
      max_threads == 0 ? std::thread::hardware_concurrency() : max_threads;
  if (threads == 0) threads = 1;
  return static_cast<unsigned>(std::min<std::size_t>(threads, count));
}

// One worker's exception and the index whose body raised it.
struct Failure {
  std::size_t index = 0;
  std::exception_ptr error;
};

// Rethrows the failure with the lowest index and logs the rest. Ranking by
// index rather than by worker or by time keeps the rethrown error the same
// on every run: the lowest failing index is always visited, whichever
// worker takes it.
void rethrow_lowest_log_rest(std::vector<Failure> failures) {
  std::erase_if(failures, [](const Failure& failure) { return !failure.error; });
  if (failures.empty()) return;
  std::sort(failures.begin(), failures.end(),
            [](const Failure& a, const Failure& b) { return a.index < b.index; });
  for (std::size_t i = 1; i < failures.size(); ++i) {
    // Secondary failures would otherwise vanish; surface them in the log
    // before the primary one is rethrown.
    try {
      std::rethrow_exception(failures[i].error);
    } catch (const std::exception& e) {
      LOCPRIV_LOG(kWarn, "parallel")
          << "additional worker exception suppressed (index " << failures[i].index
          << "): " << e.what();
      // Secondary failure: logged here, while the primary worker exception
      // is rethrown below. locpriv-lint: allow(swallowed-catch)
    } catch (...) {
      LOCPRIV_LOG(kWarn, "parallel")
          << "additional non-std worker exception suppressed (index "
          << failures[i].index << ")";
    }
  }
  std::rethrow_exception(failures.front().error);
}

}  // namespace

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  unsigned max_threads) {
  if (count == 0) return;
  const unsigned threads = resolve_threads(count, max_threads);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> cursor{0};
  std::vector<Failure> failures(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::size_t i = cursor.fetch_add(1);
      try {
        for (; i < count; i = cursor.fetch_add(1)) body(i);
      } catch (...) {
        failures[t] = {i, std::current_exception()};
      }
    });
  }
  for (auto& worker : workers) worker.join();
  rethrow_lowest_log_rest(std::move(failures));
}

}  // namespace locpriv::util
