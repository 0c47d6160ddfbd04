#include "support/checksum.h"

#include <array>

namespace mobivine::support {

namespace {

constexpr std::uint32_t kPolynomial = 0xEDB88320u;

/// kTables[0] is the classic byte table; kTables[k][b] is the CRC of byte
/// b followed by k zero bytes, so eight table lookups advance the CRC by
/// eight input bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables BuildTables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolynomial : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

/// Little-endian 32-bit load, assembled from bytes so the result does not
/// depend on the host's byte order (compilers fold it into one load).
inline std::uint32_t LoadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = ~seed;
  // Slicing-by-8: fold the running CRC into the next four bytes, then
  // look up all eight bytes in the table for their distance from the end
  // of the block.
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = LoadLe32(bytes) ^ crc;
    const std::uint32_t hi = LoadLe32(bytes + 4);
    crc = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
          kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
          kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xffu];
  }
  return ~crc;
}

}  // namespace mobivine::support
