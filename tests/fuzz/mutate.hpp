// The mutation model the seeded standalone fuzz drivers in this directory
// replay through their libFuzzer entry points. Deterministic in the Rng
// stream, so a (seed, iterations) pair always feeds the same inputs.
#pragma once

#include <cstddef>

#include "common/rng.hpp"

namespace eclat::fuzz {

/// Apply one of: truncation, up to 8 byte flips, or a splice of up to 23
/// random bytes at a random offset. `Bytes` is a contiguous byte container
/// such as std::string or mc::Blob.
template <typename Bytes>
Bytes mutate(Bytes bytes, Rng& rng) {
  using Byte = typename Bytes::value_type;
  switch (rng.below(3)) {
    case 0:  // truncate
      if (!bytes.empty()) bytes.resize(rng.below(bytes.size()));
      break;
    case 1: {  // flip up to 8 bytes
      if (bytes.empty()) break;
      const std::size_t flips = 1 + rng.below(8);
      for (std::size_t f = 0; f < flips; ++f) {
        bytes[rng.below(bytes.size())] ^=
            static_cast<Byte>(1 + rng.below(255));
      }
      break;
    }
    default: {  // splice random garbage at a random offset
      const std::size_t at = bytes.empty() ? 0 : rng.below(bytes.size());
      Bytes garbage(rng.below(24), Byte{0});
      for (Byte& byte : garbage) byte = static_cast<Byte>(rng.below(256));
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                   garbage.begin(), garbage.end());
      break;
    }
  }
  return bytes;
}

}  // namespace eclat::fuzz
