// CRC-32 (IEEE 802.3 polynomial), table-driven slice-by-8.
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

/// CRC-32/IEEE over `data` (init 0xFFFFFFFF, reflected, final xor).
std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

}  // namespace amoeba
