// Fault-injection tests: the protocol's negative-acknowledgement recovery
// from lost, garbled, and duplicated frames (Section 2.1: "the group
// protocol automatically recovers from lost, garbled, and duplicate
// messages"), plus sequencer overload behaviour.
#include <gtest/gtest.h>

#include "common/chain.hpp"
#include "group/sim_harness.hpp"

namespace amoeba::group {
namespace {

std::size_t app_count(const SimProcess& p) {
  std::size_t n = 0;
  for (const auto& m : p.delivered()) {
    if (m.kind == MessageKind::app) ++n;
  }
  return n;
}

void pump_sends(SimGroupHarness& h, std::size_t proc, int count,
                int* completed, std::size_t bytes = 16) {
  const Chain<int> send_next([&h, proc, count, completed, bytes](
      const Chain<int>& next, int k) {
    if (k >= count) return;
    h.process(proc).user_send(make_pattern_buffer(bytes),
                              [completed, k, next, &h, proc,
                               count](Status s) {
                                if (s == Status::ok) ++*completed;
                                next(k + 1);
                              });
  });
  send_next(0);
}

bool all_delivered(SimGroupHarness& h, std::size_t expect) {
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (app_count(h.process(i)) < expect) return false;
  }
  return true;
}

void expect_identical_streams(SimGroupHarness& h) {
  const auto& ref = h.process(0).delivered();
  for (std::size_t i = 1; i < h.size(); ++i) {
    const auto& got = h.process(i).delivered();
    std::size_t ri = 0, gi = 0;
    while (ri < ref.size() && gi < got.size()) {
      if (seq_lt(ref[ri].seq, got[gi].seq)) {
        ++ri;
      } else if (seq_lt(got[gi].seq, ref[ri].seq)) {
        ++gi;
      } else {
        EXPECT_EQ(ref[ri].sender, got[gi].sender) << "seq " << ref[ri].seq;
        EXPECT_EQ(ref[ri].sender_msg_id, got[gi].sender_msg_id);
        EXPECT_EQ(ref[ri].data, got[gi].data);
        ++ri;
        ++gi;
      }
    }
  }
}

TEST(GroupFault, FrameLossRecoveredByNacks) {
  SimGroupHarness h(4, GroupConfig{});
  ASSERT_TRUE(h.form_group());
  h.world().segment().set_fault_plan(sim::FaultPlan{.loss_prob = 0.10});

  int completed = 0;
  for (std::size_t p = 0; p < 4; ++p) pump_sends(h, p, 25, &completed);
  ASSERT_TRUE(h.run_until(
      [&] { return completed == 100 && all_delivered(h, 100); },
      Duration::seconds(120)));

  expect_identical_streams(h);
  std::uint64_t nacks = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    nacks += h.process(i).member().stats().nacks_sent;
  }
  EXPECT_GT(nacks, 0u) << "10% loss must exercise the NACK path";
}

TEST(GroupFault, GarbledFramesRecovered) {
  SimGroupHarness h(3, GroupConfig{});
  ASSERT_TRUE(h.form_group());
  h.world().segment().set_fault_plan(sim::FaultPlan{.garble_prob = 0.10});

  int completed = 0;
  for (std::size_t p = 0; p < 3; ++p) pump_sends(h, p, 20, &completed, 200);
  ASSERT_TRUE(h.run_until(
      [&] { return completed == 60 && all_delivered(h, 60); },
      Duration::seconds(120)));
  expect_identical_streams(h);
  // Payload integrity despite bit flips on the wire.
  for (std::size_t i = 0; i < 3; ++i) {
    for (const auto& m : h.process(i).delivered()) {
      if (m.kind == MessageKind::app) {
        EXPECT_TRUE(check_pattern_buffer(m.data));
      }
    }
  }
}

TEST(GroupFault, DuplicatedFramesDroppedExactlyOnceDelivery) {
  SimGroupHarness h(3, GroupConfig{});
  ASSERT_TRUE(h.form_group());
  h.world().segment().set_fault_plan(sim::FaultPlan{.duplicate_prob = 0.25});

  int completed = 0;
  for (std::size_t p = 0; p < 3; ++p) pump_sends(h, p, 20, &completed);
  ASSERT_TRUE(h.run_until(
      [&] { return completed == 60 && all_delivered(h, 60); },
      Duration::seconds(120)));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(app_count(h.process(i)), 60u) << "exactly once, never twice";
  }
  expect_identical_streams(h);
}

TEST(GroupFault, CombinedFaultsWithBbMethod) {
  GroupConfig cfg;
  cfg.method = Method::bb;
  SimGroupHarness h(4, cfg);
  ASSERT_TRUE(h.form_group());
  h.world().segment().set_fault_plan(
      sim::FaultPlan{.loss_prob = 0.05, .duplicate_prob = 0.05,
                     .garble_prob = 0.05});

  int completed = 0;
  for (std::size_t p = 0; p < 4; ++p) pump_sends(h, p, 15, &completed, 100);
  ASSERT_TRUE(h.run_until(
      [&] { return completed == 60 && all_delivered(h, 60); },
      Duration::seconds(120)));
  expect_identical_streams(h);
}

TEST(GroupFault, SilentMemberIsExpelledSoHistoryCanTrim) {
  GroupConfig cfg;
  cfg.history_size = 16;  // small history: trimming pressure comes fast
  cfg.status_poll = Duration::millis(20);
  cfg.status_retries = 3;
  SimGroupHarness h(3, cfg);
  ASSERT_TRUE(h.form_group());

  // Member 2's processor dies silently (fail-stop, no notification).
  h.world().node(2).crash();

  int completed = 0;
  pump_sends(h, 1, 60, &completed);
  ASSERT_TRUE(h.run_until(
      [&] {
        return completed == 60 && h.process(0).member().info().size() == 2;
      },
      Duration::seconds(120)));
  EXPECT_GE(h.process(0).member().stats().expels_issued, 1u);
  EXPECT_GE(h.process(0).member().stats().status_polls, 1u);
  // The survivors agree the dead member is gone.
  EXPECT_EQ(h.process(1).member().info().size(), 2u);
}

TEST(GroupFault, HistoryOverloadStallsThenRecovers) {
  GroupConfig cfg;
  cfg.history_size = 8;
  SimGroupHarness h(3, cfg);
  ASSERT_TRUE(h.form_group());

  // Flood from everyone; the tiny history forces stalls, but the sender
  // retry machinery must push everything through eventually.
  int completed = 0;
  for (std::size_t p = 0; p < 3; ++p) pump_sends(h, p, 30, &completed);
  ASSERT_TRUE(h.run_until(
      [&] { return completed == 90 && all_delivered(h, 90); },
      Duration::seconds(300)));
  expect_identical_streams(h);
}

TEST(GroupFault, ExpelledButAliveMemberLearnsItsFate) {
  GroupConfig cfg;
  cfg.history_size = 16;
  cfg.status_poll = Duration::millis(20);
  cfg.status_retries = 2;
  SimGroupHarness h(3, cfg);
  ASSERT_TRUE(h.form_group());

  // Member 2 is alive but its frames are all lost on receive AND its
  // replies never arrive: emulate with a long CPU stall (slow, not dead).
  h.world().node(2).charge(Duration::seconds(3));

  int completed = 0;
  pump_sends(h, 1, 60, &completed);
  ASSERT_TRUE(h.run_until(
      [&] {
        return completed == 60 && h.process(0).member().info().size() == 2;
      },
      Duration::seconds(120)));

  // Once its CPU unfreezes, the slow member processes the expel that names
  // it and reports the fault upward ("some processes may be declared dead
  // although they are functioning fine").
  ASSERT_TRUE(h.run_until(
      [&] { return h.process(2).fault().has_value(); }, Duration::seconds(60)));
  EXPECT_EQ(h.process(2).member().state(), GroupMember::State::failed);
}

TEST(GroupFault, SenderTimesOutWhenSequencerDies) {
  GroupConfig cfg;
  cfg.send_retry = Duration::millis(20);
  cfg.send_retries = 3;
  SimGroupHarness h(3, cfg);
  ASSERT_TRUE(h.form_group());

  h.world().node(0).crash();  // the sequencer

  std::optional<Status> result;
  h.process(1).user_send(make_pattern_buffer(8),
                         [&](Status s) { result = s; });
  ASSERT_TRUE(h.run_until([&] { return result.has_value(); },
                          Duration::seconds(30)));
  EXPECT_EQ(*result, Status::timeout);
  EXPECT_EQ(h.process(1).member().state(), GroupMember::State::failed);
  ASSERT_TRUE(h.process(1).fault().has_value());
}

}  // namespace
}  // namespace amoeba::group
