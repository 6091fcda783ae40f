// Calibration regression guards: the paper's headline anchors, asserted
// with tolerance bands. If a protocol or simulator change drifts the
// reproduction away from the paper, these fail before the benches do.
//
// Bands are deliberately generous (±10-15%): they guard the reproduction,
// not the third significant digit.
#include <gtest/gtest.h>

#include "common/chain.hpp"
#include "common/stats.hpp"
#include "group/sim_harness.hpp"

namespace amoeba::group {
namespace {

double delay_us(std::size_t members, std::size_t bytes, Method method,
                std::uint32_t r = 0, int iters = 150) {
  GroupConfig cfg;
  cfg.method = method;
  cfg.resilience = r;
  SimGroupHarness h(members, cfg);
  if (!h.form_group()) return -1;
  Histogram hist;
  int done = 0;
  Time start{};
  const MemberId my = h.process(1).member().info().my_id;
  const auto send_one = [&] {
    if (done >= iters) return;
    start = h.engine().now();
    h.process(1).user_send(make_pattern_buffer(bytes), [](Status) {});
  };
  h.process(1).set_on_deliver([&](const GroupMessage& m) {
    if (m.kind == MessageKind::app && m.sender == my) {
      hist.add(h.engine().now() - start);
      ++done;
      send_one();
    }
  });
  send_one();
  h.run_until([&] { return done >= iters; }, Duration::seconds(300));
  return hist.mean();
}

double throughput(std::size_t members, std::size_t batch_count = 1,
                  int window = 1) {
  GroupConfig cfg;
  cfg.method = Method::pb;
  cfg.batch_count = batch_count;
  cfg.max_outstanding = window;
  SimGroupHarness h(members, cfg);
  if (!h.form_group()) return -1;
  for (std::size_t p = 0; p < members; ++p) {
    h.process(p).set_keep_payloads(false);
  }
  std::uint64_t completed = 0;
  for (std::size_t p = 0; p < members; ++p) {
    const Chain<> loop([&h, &completed, p](const Chain<>& next) {
      h.process(p).user_send(Buffer{}, [&completed, next](Status s) {
        if (s == Status::ok) ++completed;
        next();
      });
    });
    // One chain per window slot: `window` sends stay in flight per member
    // (window 1 = the paper's blocking sender).
    for (int w = 0; w < window; ++w) loop();
  }
  h.run_until([] { return false; }, Duration::seconds(1));
  const std::uint64_t warm = completed;
  const Time t0 = h.engine().now();
  h.run_until([] { return false; }, Duration::seconds(4));
  return static_cast<double>(completed - warm) /
         (h.engine().now() - t0).to_seconds();
}

TEST(Calibration, NullBroadcastGroupOfTwoIs2point7ms) {
  const double us = delay_us(2, 0, Method::pb);
  EXPECT_GT(us, 2400.0);
  EXPECT_LT(us, 3000.0) << "paper: 2.7 ms";
}

TEST(Calibration, NullBroadcastThirtyMembersIs2point8ms) {
  const double us = delay_us(30, 0, Method::pb, 0, 80);
  EXPECT_GT(us, 2500.0);
  EXPECT_LT(us, 3100.0) << "paper: 2.8 ms";
}

TEST(Calibration, PerMemberSlopeIsMicroseconds) {
  const double d2 = delay_us(2, 0, Method::pb, 0, 80);
  const double d30 = delay_us(30, 0, Method::pb, 0, 80);
  const double slope = (d30 - d2) / 28.0;
  EXPECT_GT(slope, 1.0);
  EXPECT_LT(slope, 12.0) << "paper: ~4 us per member";
}

TEST(Calibration, EightKbPbAddsRoughly20ms) {
  const double d0 = delay_us(2, 0, Method::pb, 0, 60);
  const double d8k = delay_us(2, 8000, Method::pb, 0, 60);
  const double added_ms = (d8k - d0) / 1000.0;
  EXPECT_GT(added_ms, 13.0);
  EXPECT_LT(added_ms, 24.0) << "paper: roughly 20 ms added";
}

TEST(Calibration, BbHalvesLargeMessageCost) {
  const double pb = delay_us(5, 8000, Method::pb, 0, 60);
  const double bb = delay_us(5, 8000, Method::bb, 0, 60);
  EXPECT_LT(bb, pb * 0.75) << "paper: dramatically better under BB";
}

TEST(Calibration, ThroughputCeilingNear815) {
  // The paper's ceiling is the unbatched protocol: one multicast per
  // message, one blocking send per member (batch_count = 1, window 1).
  const double tput = throughput(8);
  EXPECT_GT(tput, 680.0);
  EXPECT_LT(tput, 900.0) << "paper: 815 msg/s maximum";
}

TEST(Calibration, BatchingAtLeastDoublesTheCeiling) {
  // EXTENSION guard: packed frames must at least double the
  // sequencer-bound ceiling against the batch_count = 1 ablation at the
  // same send window (the amortized per-frame emission/interrupt cost is
  // what Figure 4's flat ceiling was made of). Window 4 keeps 32 requests
  // in flight — enough backlog to fill frames; the unbatched ablation at
  // the same window is *worse* than blocking senders (792/s): one frame
  // per message overflows the sequencer's 32-frame Lance ring, the
  // paper's own congestion story.
  const double ablation = throughput(8, 1, 4);
  const double batched = throughput(8, 24, 4);
  EXPECT_GT(batched, ablation * 2.0)
      << "ablation=" << ablation << " batched=" << batched;
  // And it must beat the paper's blocking-sender ceiling outright.
  EXPECT_GT(batched, 1400.0);
}

TEST(Calibration, ResilienceAckCosts600us) {
  const double r1 = delay_us(2, 0, Method::pb, 1, 60);
  const double r15 = delay_us(16, 0, Method::pb, 15, 60);
  const double per_ack = (r15 - r1) / 14.0;
  EXPECT_GT(per_ack, 450.0);
  EXPECT_LT(per_ack, 800.0) << "paper: ~600 us per acknowledgement";
}

}  // namespace
}  // namespace amoeba::group
