// Golden digests: a 64-bit FNV-1a hash folded over a run's artifacts and
// simulated cycle count. The expected values live as constants in the test
// sources; a mismatch prints the new digest, so re-pinning an intended
// change is a one-line edit that shows up in review.
//
// Not CRC32: dumps, traces and span files end each section with the CRC32
// of that section, and a CRC32 continued over data plus its own CRC32
// depends only on the running state and the length. A CRC32 digest of
// those files would be blind to every counter value in them.
#pragma once

#include <cstddef>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace bgp::golden {

inline constexpr u64 kSeed = 0xcbf29ce484222325ull;  // FNV-1a offset basis

inline u64 add(u64 h, std::span<const std::byte> bytes) {
  for (const std::byte b : bytes) {
    h ^= static_cast<u64>(b);
    h *= 0x100000001b3ull;  // FNV-1a 64-bit prime
  }
  return h;
}

inline u64 add(u64 h, std::string_view bytes) {
  return add(h, std::as_bytes(std::span(bytes.data(), bytes.size())));
}

/// Folds `v` in as 8 little-endian bytes, independent of host byte order.
inline u64 add(u64 h, u64 v) {
  std::byte le[8];
  for (int i = 0; i < 8; ++i) le[i] = std::byte((v >> (8 * i)) & 0xFF);
  return add(h, std::span<const std::byte>(le));
}

inline std::string hex(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace bgp::golden
