#include "probes.hpp"

#include <algorithm>
#include <random>
#include <vector>

#include "common/crc32.hpp"
#include "flip/packet.hpp"
#include "group/message.hpp"
#include "spans.hpp"

namespace e2e {

namespace {

constexpr int kBatches = 15;
constexpr int kPerBatch = 200;
/// Every timed result is folded into this, so no call can be elided.
volatile std::uint64_t g_sink = 0;

/// Median over batches of the mean ns per call of `op`, which returns a
/// value folded into `sink` so the calls cannot be optimized away.
template <typename Op>
double time_op(Op op, std::uint64_t& sink) {
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kPerBatch; ++i) sink += op();
    per_call.push_back(static_cast<double>(now_ns() - t0) / kPerBatch);
  }
  std::nth_element(per_call.begin(), per_call.begin() + kBatches / 2,
                   per_call.end());
  return per_call[kBatches / 2];
}

}  // namespace

CodecCosts measure_codecs(std::size_t payload_bytes, bool broadcast_method,
                          std::size_t max_frame_payload, std::uint64_t seed) {
  namespace group = amoeba::group;
  namespace flip = amoeba::flip;
  std::mt19937_64 rng(seed);
  amoeba::Buffer bytes(payload_bytes);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());

  group::WireMsg m;
  m.type = broadcast_method ? group::WireType::data_bb
                            : group::WireType::data_pb;
  m.sender = 1;
  m.msg_id = 7;
  m.payload = amoeba::BufView(std::move(bytes));
  const amoeba::BufView wire = group::encode_wire(m);

  // FLIP fragments as FlipStack::transmit cuts them.
  const std::size_t mtu = max_frame_payload - flip::kEncodedHeaderBytes - 4;
  const std::size_t frag_len = std::min(mtu, wire.size());
  flip::PacketHeader h;
  h.type = broadcast_method ? flip::PacketType::multidata
                            : flip::PacketType::unidata;
  h.dst = flip::process_address(1);
  h.src = flip::process_address(2);
  h.msg_id = 9;
  h.total_len = static_cast<std::uint32_t>(wire.size());
  const std::span<const std::uint8_t> frag(wire.data(), frag_len);
  const amoeba::BufView frame = flip::encode_packet(h, frag);

  std::uint64_t sink = 0;
  CodecCosts c;
  c.group_encode_ns = time_op([&] { return group::encode_wire(m).size(); }, sink);
  c.group_decode_ns = time_op(
      [&] {
        const auto d = group::decode_wire(wire);
        return d.has_value() ? d->payload.size() : 0;
      },
      sink);
  c.flip_encode_ns =
      time_op([&] { return flip::encode_packet(h, frag).size(); }, sink);
  c.flip_decode_ns = time_op(
      [&] {
        const auto d = flip::decode_packet(frame);
        return d.has_value() ? d->fragment.size() : 0;
      },
      sink);
  const double crc_ns = time_op(
      [&] { return std::uint64_t{amoeba::crc32(frame.span())}; }, sink);
  c.crc32_ns_per_kib = crc_ns * 1024.0 / static_cast<double>(frame.size());
  g_sink = sink;
  return c;
}

}  // namespace e2e
