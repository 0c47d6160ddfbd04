// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the wire
// protocol's payload integrity check.
//
// Not cryptographic: it catches bit flips, truncation and reordering from
// a buggy peer or a corrupted stream, which is exactly the failure class a
// framing layer must detect before trusting a length or dispatching a
// request. Slicing-by-8: eight 1 KiB tables built at compile time, eight
// input bytes per step, a byte-at-a-time tail. One portable code path, no
// CPU dispatch; results are identical to the classic one-table loop.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mobivine::support {

/// CRC32 of [data, data+size). Chainable: feed the previous return value
/// as `seed` to extend a running checksum (Crc32(a+b) == chained calls).
[[nodiscard]] std::uint32_t Crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0);

}  // namespace mobivine::support
