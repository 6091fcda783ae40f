// Timed calls to the public codecs on one workload's frame shapes: the
// group wire codec on a data request of the workload's payload size, and
// the FLIP packet codec and CRC on the first fragment that request
// becomes. Medians of repeated batches, in ns per call.
#pragma once

#include <cstddef>
#include <cstdint>

namespace e2e {

struct CodecCosts {
  double group_encode_ns{0};
  double group_decode_ns{0};
  double flip_encode_ns{0};
  double flip_decode_ns{0};
  double crc32_ns_per_kib{0};
};

CodecCosts measure_codecs(std::size_t payload_bytes, bool broadcast_method,
                          std::size_t max_frame_payload, std::uint64_t seed);

}  // namespace e2e
