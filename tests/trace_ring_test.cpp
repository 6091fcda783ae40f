// TraceRing: the repo's single-producer / single-consumer ring, which
// carries protocol events from a member's executor to whoever drains them.
// Functional coverage plus a two-thread stress case that the TSan CI job
// runs: live draining from another thread relies on the ring's
// acquire/release head/tail protocol.
#include "check/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace amoeba::check {
namespace {

TraceEvent event_with(std::uint64_t a) {
  TraceEvent e;
  e.a = a;
  return e;
}

TEST(TraceRing, EmitDrainFifo) {
  TraceRing ring(8);
  for (std::uint64_t i = 0; i < 5; ++i) ring.emit(event_with(i));
  std::vector<TraceEvent> out;
  EXPECT_EQ(ring.drain(out), 5u);
  ASSERT_EQ(out.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(out[i].a, i);
  EXPECT_EQ(ring.drain(out), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(5).capacity(), 8u);
  EXPECT_EQ(TraceRing(8).capacity(), 8u);
  EXPECT_EQ(TraceRing(1).capacity(), 1u);
}

TEST(TraceRing, FullRingDropsNewestAndCounts) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 6; ++i) ring.emit(event_with(i));
  EXPECT_EQ(ring.dropped(), 2u);
  std::vector<TraceEvent> out;
  ASSERT_EQ(ring.drain(out), 4u);
  EXPECT_EQ(out.back().a, 3u) << "the oldest events are kept";
  // Draining makes room again.
  ring.emit(event_with(6));
  out.clear();
  ASSERT_EQ(ring.drain(out), 1u);
  EXPECT_EQ(out[0].a, 6u);
  EXPECT_EQ(ring.dropped(), 2u);
}

TEST(TraceRing, WrapAroundManyTimes) {
  TraceRing ring(4);
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  std::vector<TraceEvent> out;
  for (int round = 0; round < 1000; ++round) {
    for (std::size_t k = 0; k < ring.capacity(); ++k) {
      ring.emit(event_with(next_in++));
    }
    out.clear();
    ring.drain(out);
    for (const TraceEvent& e : out) EXPECT_EQ(e.a, next_out++);
  }
  EXPECT_EQ(next_in, next_out);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRing, ProducerConsumerStress) {
  // One producer emits a monotone sequence through a small ring while a
  // consumer drains it live. Every drained event must arrive in order with
  // no tears, and drained + dropped must account for every emit.
  constexpr std::uint64_t kItems = 200000;
  TraceRing ring(64);
  std::atomic<bool> done{false};
  bool in_order = true;
  std::uint64_t drained = 0;

  std::thread consumer([&] {
    std::vector<TraceEvent> out;
    std::uint64_t last = 0;
    bool first = true;
    while (true) {
      const bool finished = done.load(std::memory_order_acquire);
      out.clear();
      drained += ring.drain(out);
      for (const TraceEvent& e : out) {
        if (!first && e.a <= last) in_order = false;
        last = e.a;
        first = false;
      }
      if (finished) return;
      if (out.empty()) std::this_thread::yield();
    }
  });

  for (std::uint64_t i = 0; i < kItems; ++i) ring.emit(event_with(i));
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_TRUE(in_order) << "consumer saw an out-of-order event";
  EXPECT_EQ(drained + ring.dropped(), kItems);
}

}  // namespace
}  // namespace amoeba::check
