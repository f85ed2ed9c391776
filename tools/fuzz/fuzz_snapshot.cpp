// libFuzzer harness for the shard snapshot parser. Snapshots are the
// failover path's source of truth: a resumed or respawned shard trusts
// parse_snapshot() to either load exact state or throw Error(kResume) — the
// one non-crash rejection channel. The harness feeds arbitrary bytes and
// enforces:
//   - no crash/UB on any input (the fuzzer's own check);
//   - rejection only ever surfaces as locpriv::Error (anything else would
//     bypass the resume fallback in locprivd);
//   - accepted input round-trips: re-encoding the parsed snapshot yields
//     bytes the parser accepts again with identical state, user by user
//     (fix count, window, open-stay sums as bits, closed stays), and that
//     re-encoding is a fixed point (encode(parse(e)) == e).
// The seeds under corpus/snapshot/ are format-v3 files; the tier-1 test
// FuzzCorpus.SnapshotSeedsSpeakTheCurrentFormat keeps them current.
// Build with -DLOCPRIV_FUZZ=ON (clang); see tools/fuzz/CMakeLists.txt.
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "core/harness/error.hpp"
#include "service/snapshot.hpp"

namespace {

bool same_bytes(const void* a, const void* b, std::size_t size) {
  return size == 0 || std::memcmp(a, b, size) == 0;
}

/// Both users' state, compared bit for bit.
bool same_user(const locpriv::service::UserStays& a,
               const locpriv::service::UserStays& b) {
  const auto x = a.stream.state();
  const auto y = b.stream.state();
  const auto bits = [](double value) { return std::bit_cast<std::uint64_t>(value); };
  return a.fixes == b.fixes && x.window.size() == y.window.size() &&
         same_bytes(x.window.data(), y.window.data(),
                    x.window.size() * sizeof(x.window[0])) &&
         x.inside == y.inside && x.enter_s == y.enter_s &&
         bits(x.lat_sum) == bits(y.lat_sum) && bits(x.lon_sum) == bits(y.lon_sum) &&
         x.count == y.count && x.last_s == y.last_s &&
         x.stays.size() == y.stays.size() &&
         same_bytes(x.stays.data(), y.stays.data(),
                    x.stays.size() * sizeof(x.stays[0]));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace service = locpriv::service;
  const std::string encoded(reinterpret_cast<const char*>(data), size);
  try {
    const service::ShardSnapshot snapshot = service::parse_snapshot(encoded);
    const std::string reencoded = service::encode_snapshot(snapshot);
    const service::ShardSnapshot again = service::parse_snapshot(reencoded);
    if (again.shard != snapshot.shard || again.seq != snapshot.seq ||
        again.last_seq != snapshot.last_seq || again.params != snapshot.params ||
        again.users.size() != snapshot.users.size() ||
        again.fix_count() != snapshot.fix_count() ||
        service::encode_snapshot(again) != reencoded)
      __builtin_trap();
    auto it = again.users.begin();
    for (const auto& [user, held] : snapshot.users) {
      if (it->first != user || !same_user(it->second, held)) __builtin_trap();
      ++it;
    }
  } catch (const locpriv::Error&) {
    // Corrupt bytes must land here — the resume fallback's contract.
  }
  return 0;
}
