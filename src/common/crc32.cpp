#include "common/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

// Advances the CRC register `c` over p[0, n), eight bytes per step.
std::uint32_t slice8(std::uint32_t c, const std::uint8_t* p,
                     std::size_t n) noexcept {
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
  return c;
}

#if defined(__x86_64__)

#define AMOEBA_CLMUL __attribute__((target("pclmul,sse4.1")))

AMOEBA_CLMUL inline __m128i load128(const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// One 128-bit fold: x.lo * k.lo ^ x.hi * k.hi ^ next.
AMOEBA_CLMUL inline __m128i fold128(__m128i x, __m128i k,
                                    __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Advances the CRC register `c` over p[0, n), where n >= 64 and n is a
// multiple of 16, by carry-less multiplication: Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction" (Intel,
// 2009). The constants are the paper's, bit-reflected for 0xEDB88320 (the
// same ones zlib and Chromium use): k1/k2 fold 128 bits across 512,
// k3/k4 across 128, k5 folds 64 bits to 32, and {P', mu} drive the final
// Barrett reduction.
AMOEBA_CLMUL std::uint32_t fold_clmul(std::uint32_t c, const std::uint8_t* p,
                                      std::size_t n) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  // Four 128-bit lanes, 64 bytes per step.
  __m128i x1 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load128(p + 16);
  __m128i x3 = load128(p + 32);
  __m128i x4 = load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold128(x1, k1k2, load128(p));
    x2 = fold128(x2, k1k2, load128(p + 16));
    x3 = fold128(x3, k1k2, load128(p + 32));
    x4 = fold128(x4, k1k2, load128(p + 48));
  }

  // Lanes into one, then the remaining 16-byte blocks.
  x1 = fold128(x1, k3k4, x2);
  x1 = fold128(x1, k3k4, x3);
  x1 = fold128(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) {
    x1 = fold128(x1, k3k4, load128(p));
  }

  // 128 bits to 64, then 64 to 32 significant bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));

  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#undef AMOEBA_CLMUL

// Chosen on first use, not at namespace scope: a static initializer could
// run before libgcc has probed the CPU.
bool have_clmul() noexcept {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return ok;
}

#else

bool have_clmul() noexcept { return false; }

#endif

}  // namespace

namespace detail {

std::uint32_t crc32_portable(std::span<const std::uint8_t> data) noexcept {
  return slice8(0xFFFFFFFFU, data.data(), data.size()) ^ 0xFFFFFFFFU;
}

std::uint32_t crc32_clmul(std::span<const std::uint8_t> data) noexcept {
  std::uint32_t c = 0xFFFFFFFFU;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#if defined(__x86_64__)
  if (n >= 64) {
    const std::size_t blocks = n & ~std::size_t{15};
    c = fold_clmul(c, p, blocks);
    p += blocks;
    n -= blocks;
  }
#endif
  return slice8(c, p, n) ^ 0xFFFFFFFFU;
}

}  // namespace detail

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  return have_clmul() ? detail::crc32_clmul(data)
                      : detail::crc32_portable(data);
}

const char* crc32_kernel() noexcept {
  return have_clmul() ? "pclmul" : "slice8";
}

}  // namespace amoeba
