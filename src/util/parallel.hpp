// Deterministic data-parallel loop. Workers take indices one at a time from
// a shared cursor; callers write results into pre-sized slots keyed by
// index, so the output is identical to the sequential run regardless of
// thread count or visit order. Any randomness must be pre-derived per index
// (fork seeds sequentially, then run in parallel).
#pragma once

#include <cstddef>
#include <functional>

namespace locpriv::util {

/// Invokes `body(i)` for every i in [0, count). `body` runs concurrently
/// for distinct indices, in no fixed order; it must not touch shared
/// mutable state without synchronisation, nor append to shared sequences.
/// Indices come from a shared atomic cursor, so one slow index does not
/// hold back the indices behind it.
///
/// A worker whose body throws stops taking indices; the others keep
/// draining the cursor, and all of them are joined. Every worker's
/// exception is kept with the index that raised it: the one with the lowest
/// index is rethrown on the caller's thread (the same one on every run) and
/// the rest are logged at warn level, never silently dropped.
///
/// `max_threads` caps the worker count (0 = hardware concurrency). Passing
/// 1 degenerates to a plain sequential loop.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  unsigned max_threads = 0);

}  // namespace locpriv::util
