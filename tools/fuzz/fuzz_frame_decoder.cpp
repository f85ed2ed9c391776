// libFuzzer harness for the FrameDecoder (core/harness/frame.hpp, reached
// here through service/wire.hpp). The decoder sits directly on every
// ChildProcess output pipe — locprivd's shards and the supervisor's
// isolated cells alike — so every byte a (possibly dying, possibly wedged)
// child writes reaches it unfiltered: arbitrary lengths, torn frames,
// garbage after a kill. The harness replays fuzz input as a chunked
// stream (chunk size derived from the first byte, so minimization explores
// reassembly boundaries) and checks two invariants on top of
// "never crash":
//   - anything the decoder accepts must round-trip bit-exactly through
//     encode_message() and a fresh decoder;
//   - once corrupt() latches, next() must stay false forever.
// Build with -DLOCPRIV_FUZZ=ON (clang); see tools/fuzz/CMakeLists.txt.
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/wire.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace wire = locpriv::service::wire;
  if (size == 0) return 0;
  const std::size_t chunk = static_cast<std::size_t>(data[0] % 31) + 1;

  wire::FrameDecoder decoder;
  std::vector<std::string> fields;
  std::size_t offset = 1;
  while (offset < size) {
    const std::size_t n = std::min(chunk, size - offset);
    decoder.feed(reinterpret_cast<const char*>(data) + offset, n);
    offset += n;
    while (decoder.next(fields)) {
      // Round trip: a decoded message re-encodes to a stream a fresh
      // decoder parses back to the identical field vector.
      const std::string again = wire::encode_message(fields);
      wire::FrameDecoder check;
      check.feed(again.data(), again.size());
      std::vector<std::string> reparsed;
      if (!check.next(reparsed) || reparsed != fields || check.corrupt())
        __builtin_trap();
    }
    if (decoder.corrupt()) {
      // A poisoned stream must stay poisoned: more bytes, no more frames.
      decoder.feed(reinterpret_cast<const char*>(data), std::min(size, n));
      if (decoder.next(fields)) __builtin_trap();
      break;
    }
  }
  return 0;
}
