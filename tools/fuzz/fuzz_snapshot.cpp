// libFuzzer harness for the shard snapshot parser. Snapshots are the
// failover path's source of truth: a resumed or respawned shard trusts
// parse_snapshot() to either load exact state or throw Error(kResume) — the
// one non-crash rejection channel. The harness feeds arbitrary bytes and
// enforces:
//   - no crash/UB on any input (the fuzzer's own check);
//   - rejection only ever surfaces as locpriv::Error (anything else would
//     bypass the resume fallback in locprivd);
//   - accepted input round-trips: re-encoding the parsed snapshot yields
//     bytes the parser accepts again with identical topline state, and that
//     re-encoding is a fixed point (encode(parse(e)) == e).
// The seeds under corpus/snapshot/ are format-v2 files; the tier-1 test
// FuzzCorpus.SnapshotSeedsSpeakTheCurrentFormat keeps them current.
// Build with -DLOCPRIV_FUZZ=ON (clang); see tools/fuzz/CMakeLists.txt.
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/harness/error.hpp"
#include "service/snapshot.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace service = locpriv::service;
  const std::string encoded(reinterpret_cast<const char*>(data), size);
  try {
    const service::ShardSnapshot snapshot = service::parse_snapshot(encoded);
    const std::string reencoded = service::encode_snapshot(snapshot);
    const service::ShardSnapshot again = service::parse_snapshot(reencoded);
    if (again.shard != snapshot.shard || again.seq != snapshot.seq ||
        again.last_seq != snapshot.last_seq ||
        again.users.size() != snapshot.users.size() ||
        again.fix_count() != snapshot.fix_count() ||
        service::encode_snapshot(again) != reencoded)
      __builtin_trap();
  } catch (const locpriv::Error&) {
    // Corrupt bytes must land here — the resume fallback's contract.
  }
  return 0;
}
