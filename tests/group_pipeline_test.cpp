// Pipelined sends (max_outstanding > 1): the Section 5 "nonblocking
// primitives" extension. The guarantees must not move: per-sender FIFO,
// exactly-once, in-order completions — while a single sender's throughput
// rises with the window.
#include <gtest/gtest.h>

#include "common/chain.hpp"
#include "group/sim_harness.hpp"

namespace amoeba::group {
namespace {

GroupConfig pipe_cfg(int window) {
  GroupConfig cfg;
  cfg.max_outstanding = window;
  cfg.send_retry = Duration::millis(30);
  cfg.send_retries = 6;
  return cfg;
}

TEST(GroupPipeline, FifoAndInOrderCompletions) {
  SimGroupHarness h(3, pipe_cfg(4));
  ASSERT_TRUE(h.form_group());

  std::vector<int> completions;
  int done = 0;
  for (int k = 0; k < 20; ++k) {
    Buffer b(2);
    b[0] = static_cast<std::uint8_t>(k);
    h.process(1).user_send(std::move(b), [&, k](Status s) {
      ASSERT_EQ(s, Status::ok);
      completions.push_back(k);
      ++done;
    });
  }
  ASSERT_TRUE(h.run_until([&] { return done == 20; }, Duration::seconds(30)));
  h.run_until([] { return false; }, Duration::millis(100));

  // Completions fire in send order (FIFO at the sequencer).
  for (int k = 0; k < 20; ++k) EXPECT_EQ(completions[static_cast<size_t>(k)], k);
  // Deliveries everywhere are FIFO and exactly-once.
  for (std::size_t p = 0; p < 3; ++p) {
    int expected = 0;
    for (const auto& m : h.process(p).delivered()) {
      if (m.kind != MessageKind::app) continue;
      EXPECT_EQ(m.data[0], expected) << "member " << p;
      ++expected;
    }
    EXPECT_EQ(expected, 20) << "member " << p;
  }
}

TEST(GroupPipeline, WindowSpeedsUpASingleSender) {
  // A nonblocking application: it keeps `window` sends in flight, issuing
  // a fresh one whenever one completes (pre-loading hundreds of syscalls
  // would just measure the syscall queue).
  const auto run = [](int window) {
    // Ablation: batch_count 1 isolates the windowing gain — the bands
    // below document the unbatched cost model.
    GroupConfig cfg = pipe_cfg(window);
    cfg.batch_count = 1;
    SimGroupHarness h(4, cfg);
    if (!h.form_group()) return -1.0;
    int done = 0;
    constexpr int kTotal = 150;
    int issued = 0;
    const Chain<> issue([&h, &done, &issued](const Chain<>& next) {
      if (issued >= kTotal) return;
      ++issued;
      h.process(1).user_send(Buffer{}, [&done, next](Status s) {
        if (s == Status::ok) ++done;
        next();
      });
    });
    for (int k = 0; k < window; ++k) issue();
    const Time t0 = h.engine().now();
    h.run_until([&] { return done == kTotal; }, Duration::seconds(120));
    if (done < kTotal) return -1.0;
    return kTotal / (h.engine().now() - t0).to_seconds();
  };
  const double w1 = run(1);
  const double w4 = run(4);
  ASSERT_GT(w1, 0);
  ASSERT_GT(w4, 0);
  // Window 4 overlaps the round trips — but the gain is modest (~20%),
  // because the sender's own per-message CPU (syscall, copies, receive
  // path) dominates once latency is hidden. This is the paper's Section 5
  // position, measured: "the problem is better solved by optimizing the
  // performance of the thread package than by reducing the ease of
  // programming" — nonblocking primitives buy less than they look like
  // they should.
  EXPECT_GT(w4, w1 * 1.1) << "w1=" << w1 << " w4=" << w4;
  EXPECT_LT(w4, w1 * 2.5) << "if this jumps, the cost model changed";
}

TEST(GroupPipeline, FifoSurvivesFrameLoss) {
  SimGroupHarness h(3, pipe_cfg(4));
  ASSERT_TRUE(h.form_group());
  h.world().segment().set_fault_plan(sim::FaultPlan{.loss_prob = 0.10});

  int done = 0;
  for (int k = 0; k < 40; ++k) {
    Buffer b(2);
    b[0] = static_cast<std::uint8_t>(k);
    h.process(1).user_send(std::move(b), [&](Status s) {
      if (s == Status::ok) ++done;
    });
  }
  ASSERT_TRUE(h.run_until(
      [&] {
        if (done < 40) return false;
        for (std::size_t p = 0; p < 3; ++p) {
          std::size_t apps = 0;
          for (const auto& m : h.process(p).delivered()) {
            if (m.kind == MessageKind::app) ++apps;
          }
          if (apps < 40) return false;
        }
        return true;
      },
      Duration::seconds(300)));

  // Loss scrambles arrival order at the sequencer; the hold-for-gap logic
  // must still sequence strictly by msg_id.
  for (std::size_t p = 0; p < 3; ++p) {
    int expected = 0;
    for (const auto& m : h.process(p).delivered()) {
      if (m.kind != MessageKind::app) continue;
      ASSERT_EQ(m.data[0], expected) << "FIFO violation at member " << p;
      ++expected;
    }
  }
}

TEST(GroupPipeline, PipelineSurvivesRecovery) {
  GroupConfig cfg = pipe_cfg(4);
  cfg.invite_interval = Duration::millis(20);
  SimGroupHarness h(4, cfg);
  ASSERT_TRUE(h.form_group());

  int ok = 0, failed = 0;
  for (int k = 0; k < 30; ++k) {
    Buffer b(2);
    b[0] = static_cast<std::uint8_t>(k);
    h.process(1).user_send(std::move(b), [&](Status s) {
      if (s == Status::ok) {
        ++ok;
      } else {
        ++failed;
      }
    });
  }
  // Crash the sequencer mid-pipeline; member 1 rebuilds.
  h.engine().schedule(Duration::millis(8), [&] { h.world().node(0).crash(); });
  std::optional<std::uint32_t> size;
  h.engine().schedule(Duration::millis(30), [&] {
    h.process(1).member().reset_group(2, [&](Status s, std::uint32_t n) {
      if (s == Status::ok) size = n;
    });
  });
  ASSERT_TRUE(h.run_until(
      [&] { return size.has_value() && (ok + failed) == 30; },
      Duration::seconds(120)));

  h.run_until([] { return false; }, Duration::millis(300));
  // Every send that reported ok is delivered exactly once, in FIFO order,
  // at every survivor.
  for (const std::size_t p : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    int last = -1;
    std::set<int> seen;
    for (const auto& m : h.process(p).delivered()) {
      if (m.kind != MessageKind::app) continue;
      const int k = m.data[0];
      EXPECT_GT(k, last) << "FIFO violation at member " << p;
      last = k;
      EXPECT_TRUE(seen.insert(k).second) << "duplicate at member " << p;
    }
    EXPECT_GE(static_cast<int>(seen.size()), ok);
  }
}

TEST(GroupPipeline, PipelinePlusFlowControl) {
  GroupConfig cfg = pipe_cfg(3);
  cfg.flow_control = true;
  cfg.fc_slots = 1;
  SimGroupHarness h(3, cfg);
  ASSERT_TRUE(h.form_group());

  int done = 0;
  for (int k = 0; k < 6; ++k) {
    // Alternate small and large: the grant path and the direct path
    // interleave within one pipeline.
    const std::size_t bytes = (k % 2 == 0) ? 64u : 8000u;
    h.process(1).user_send(make_pattern_buffer(bytes), [&](Status s) {
      ASSERT_EQ(s, Status::ok);
      ++done;
    });
  }
  ASSERT_TRUE(h.run_until([&] { return done == 6; }, Duration::seconds(60)));
  // Everything delivered, in order, intact.
  h.run_until([] { return false; }, Duration::millis(100));
  for (std::size_t p = 0; p < 3; ++p) {
    std::size_t apps = 0;
    for (const auto& m : h.process(p).delivered()) {
      if (m.kind != MessageKind::app) continue;
      EXPECT_TRUE(check_pattern_buffer(m.data));
      ++apps;
    }
    EXPECT_EQ(apps, 6u);
  }
}

}  // namespace
}  // namespace amoeba::group
