#include "common/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace amoeba {
namespace {

// Slice-by-8 reads eight bytes as one little-endian word and looks each
// byte up in its own table. A big-endian port would byte-swap the load.
static_assert(std::endian::native == std::endian::little,
              "crc32 slice-by-8 loads words in little-endian byte order");

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the classic byte-at-a-time table for the reflected IEEE
// polynomial. tables[k][i] is the CRC of byte i followed by k zero bytes,
// so one step folds eight input bytes with eight independent lookups.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = t[0][prev & 0xFFU] ^ (prev >> 8);
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  std::uint32_t c = 0xFFFFFFFFU;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    w ^= c;
    c = kTables[7][w & 0xFFU] ^ kTables[6][(w >> 8) & 0xFFU] ^
        kTables[5][(w >> 16) & 0xFFU] ^ kTables[4][(w >> 24) & 0xFFU] ^
        kTables[3][(w >> 32) & 0xFFU] ^ kTables[2][(w >> 40) & 0xFFU] ^
        kTables[1][(w >> 48) & 0xFFU] ^ kTables[0][w >> 56];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

}  // namespace amoeba
