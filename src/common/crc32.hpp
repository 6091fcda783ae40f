// CRC-32 (IEEE 802.3 polynomial): carry-less multiply folding where the CPU
// has PCLMULQDQ, table-driven slice-by-8 for short inputs, for the tail
// after the last whole 16-byte block, and on every other CPU.
//
// The Amoeba protocol "automatically recovers from lost, garbled, and
// duplicate messages" (§2.1). Garble detection in this reproduction is a
// frame checksum: the simulator's fault injector flips payload bits and the
// receiving stack discards frames whose CRC fails, exactly like the real
// Ethernet FCS path.
#pragma once

#include <cstdint>
#include <span>

namespace amoeba {

/// CRC-32/IEEE over `data` (init 0xFFFFFFFF, reflected, final xor). Uses
/// the kernel named by crc32_kernel(); every kernel returns the same value.
std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

/// The kernel crc32() uses in this process: "pclmul" or "slice8". It is
/// chosen once, from the CPU's features.
const char* crc32_kernel() noexcept;

namespace detail {

/// Slice-by-8 over the whole input; runs on any CPU.
std::uint32_t crc32_portable(std::span<const std::uint8_t> data) noexcept;

/// PCLMULQDQ folding for inputs of 64 bytes or more, slice-by-8 for the
/// rest. Call it only when crc32_kernel() is "pclmul": on a CPU without
/// PCLMULQDQ and SSE4.1 it faults. On non-x86 builds it is slice-by-8.
std::uint32_t crc32_clmul(std::span<const std::uint8_t> data) noexcept;

}  // namespace detail
}  // namespace amoeba
