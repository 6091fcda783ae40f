// Multicast flow control (extension): RTS/CTS slot admission for large
// messages — the open problem Section 4 describes, solved.
#include <gtest/gtest.h>

#include "common/chain.hpp"
#include "group/sim_harness.hpp"

namespace amoeba::group {
namespace {

GroupConfig fc_cfg() {
  GroupConfig cfg;
  cfg.flow_control = true;
  cfg.fc_slots = 2;
  cfg.send_retry = Duration::millis(40);
  cfg.send_retries = 6;
  return cfg;
}

std::size_t app_count(const SimProcess& p) {
  std::size_t n = 0;
  for (const auto& m : p.delivered()) {
    if (m.kind == MessageKind::app) ++n;
  }
  return n;
}

TEST(GroupFlowControl, SmallMessagesBypassTheGrantPath) {
  SimGroupHarness h(3, fc_cfg());
  ASSERT_TRUE(h.form_group());
  bool done = false;
  Time start = h.engine().now();
  h.process(1).user_send(make_pattern_buffer(100), [&](Status s) {
    EXPECT_EQ(s, Status::ok);
    done = true;
  });
  ASSERT_TRUE(h.run_until([&] { return done; }, Duration::seconds(5)));
  // No RTS round trip: the delay is the ordinary ~2.7 ms, not ~2x.
  EXPECT_LT((h.engine().now() - start).to_millis(), 4.0);
}

TEST(GroupFlowControl, LargeMessagesAreGrantedAndDelivered) {
  SimGroupHarness h(3, fc_cfg());
  ASSERT_TRUE(h.form_group());
  bool done = false;
  h.process(1).user_send(make_pattern_buffer(8000), [&](Status s) {
    EXPECT_EQ(s, Status::ok);
    done = true;
  });
  ASSERT_TRUE(h.run_until(
      [&] {
        if (!done) return false;
        for (std::size_t p = 0; p < 3; ++p) {
          if (app_count(h.process(p)) < 1) return false;
        }
        return true;
      },
      Duration::seconds(10)));
  for (std::size_t p = 0; p < 3; ++p) {
    for (const auto& m : h.process(p).delivered()) {
      if (m.kind == MessageKind::app) {
        EXPECT_EQ(m.data.size(), 8000u);
        EXPECT_TRUE(check_pattern_buffer(m.data));
      }
    }
  }
}

TEST(GroupFlowControl, ConcurrentLargeSendersAreAdmittedInTurn) {
  // 8 senders, 2 slots: everything completes, and the sequencer's NIC
  // never drops a frame (without flow control it would).
  SimGroupHarness h(8, fc_cfg());
  ASSERT_TRUE(h.form_group());
  int completed = 0;
  for (std::size_t p = 0; p < 8; ++p) {
    const Chain<int> pump([&, p](const Chain<int>& next, int k) {
      if (k >= 5) return;
      h.process(p).user_send(make_pattern_buffer(4096),
                             [&, k, next](Status s) {
                               if (s == Status::ok) ++completed;
                               next(k + 1);
                             });
    });
    pump(0);
  }
  ASSERT_TRUE(h.run_until(
      [&] {
        if (completed < 40) return false;
        for (std::size_t p = 0; p < 8; ++p) {
          if (app_count(h.process(p)) < 40) return false;
        }
        return true;
      },
      Duration::seconds(300)));
  EXPECT_EQ(h.world().node(0).nic().rx_dropped(), 0u)
      << "admission control must keep the sequencer's ring from "
         "overflowing";
  EXPECT_EQ(h.process(0).member().stats().history_stalls, 0u);
}

TEST(GroupFlowControl, WithoutItTheSameLoadOverflows) {
  // The control group for the test above: identical load, no admission.
  GroupConfig cfg = fc_cfg();
  cfg.flow_control = false;
  SimGroupHarness h(8, cfg);
  ASSERT_TRUE(h.form_group());
  // Sustained pressure, like the paper's throughput experiment: every
  // member keeps sending for 3 simulated seconds.
  for (std::size_t p = 0; p < 8; ++p) {
    const Chain<> pump([&, p](const Chain<>& next) {
      h.process(p).user_send(make_pattern_buffer(8000), [next](Status) {
        next();
      });
    });
    pump();
  }
  h.run_until([] { return false; }, Duration::seconds(3));
  std::uint64_t drops = 0, stalls = 0, retrans = 0;
  for (std::size_t p = 0; p < 8; ++p) {
    drops += h.world().node(p).nic().rx_dropped();
    stalls += h.process(p).member().stats().history_stalls;
    retrans += h.process(p).member().stats().retransmits_served;
  }
  EXPECT_GT(drops + stalls + retrans, 0u)
      << "the paper's Figure 4 overload must reproduce when flow control "
         "is off";
}

TEST(GroupFlowControl, GrantSurvivesLostCts) {
  GroupConfig cfg = fc_cfg();
  cfg.send_retries = 12;  // 10% frame loss on 5-fragment messages is harsh
  SimGroupHarness h(3, cfg);
  ASSERT_TRUE(h.form_group());
  h.world().segment().set_fault_plan(sim::FaultPlan{.loss_prob = 0.10});
  int completed = 0;
  const Chain<int> pump([&](const Chain<int>& next, int k) {
    if (k >= 8) return;
    h.process(1).user_send(make_pattern_buffer(6000), [&, k, next](Status s) {
      if (s == Status::ok) ++completed;
      next(k + 1);
    });
  });
  pump(0);
  ASSERT_TRUE(h.run_until([&] { return completed == 8; },
                          Duration::seconds(300)))
      << "RTS/CTS retries must ride the ordinary send-retry machinery";
}

TEST(GroupFlowControl, CrashedGrantHolderDoesNotWedgeTheQueue) {
  GroupConfig cfg = fc_cfg();
  cfg.fc_slots = 1;  // a single slot makes the leak immediately fatal
  cfg.history_size = 16;
  cfg.status_poll = Duration::millis(20);
  cfg.status_retries = 2;
  SimGroupHarness h(4, cfg);
  ASSERT_TRUE(h.form_group());

  // Member 3 asks for the slot, gets it, and dies before transmitting.
  // (Freeze its CPU right after the grant request goes out.)
  h.process(3).user_send(make_pattern_buffer(8000), [](Status) {});
  h.engine().schedule(Duration::millis(1),
                      [&] { h.world().node(3).crash(); });

  // Other members' large sends must eventually go through: the dead
  // member gets expelled (history pressure from small traffic), which
  // releases its slot.
  int completed = 0;
  const Chain<int> pump([&](const Chain<int>& next, int k) {
    if (k >= 40) return;
    // Mix small traffic (builds expel pressure) with a large send.
    const std::size_t bytes = k == 20 ? 8000u : 16u;
    h.process(1).user_send(make_pattern_buffer(bytes), [&, k, next](Status s) {
      if (s == Status::ok) ++completed;
      next(k + 1);
    });
  });
  pump(0);
  ASSERT_TRUE(h.run_until(
      [&] {
        return completed == 40 && h.process(0).member().info().size() == 3;
      },
      Duration::seconds(300)));
}

}  // namespace
}  // namespace amoeba::group
