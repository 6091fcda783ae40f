// Benchmark payload layout. Every message starts with a 16-byte stamp —
// sending station, whether it was sent inside the timed window, its
// per-station index and its (scheduled) send time — followed by bytes of
// the sending station's seeded template, so any station can check a
// delivered payload byte for byte.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>

namespace e2e {

inline constexpr std::size_t kStampBytes = 16;

struct Stamp {
  std::uint16_t station{0};
  bool in_window{false};
  std::uint32_t index{0};
  std::int64_t sent_ns{0};
};

inline void write_stamp(std::uint8_t* p, const Stamp& s) {
  const std::uint8_t flags = s.in_window ? 1 : 0;
  const std::uint8_t pad = 0;
  std::memcpy(p, &s.station, 2);
  std::memcpy(p + 2, &flags, 1);
  std::memcpy(p + 3, &pad, 1);
  std::memcpy(p + 4, &s.index, 4);
  std::memcpy(p + 8, &s.sent_ns, 8);
}

inline std::optional<Stamp> read_stamp(std::span<const std::uint8_t> p) {
  if (p.size() < kStampBytes || p[2] > 1 || p[3] != 0) return std::nullopt;
  Stamp s;
  std::memcpy(&s.station, p.data(), 2);
  s.in_window = p[2] == 1;
  std::memcpy(&s.index, p.data() + 4, 4);
  std::memcpy(&s.sent_ns, p.data() + 8, 8);
  return s;
}

}  // namespace e2e
