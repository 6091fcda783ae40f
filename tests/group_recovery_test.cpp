// ResetGroup / recovery protocol tests: sequencer crash, member crashes
// with and without resilience, quorum failure, concurrent coordinators,
// and the Section 2.1 delivery guarantees across recovery.
#include <gtest/gtest.h>

#include "common/chain.hpp"
#include "group/sim_harness.hpp"

namespace amoeba::group {
namespace {

GroupConfig fast_cfg(std::uint32_t r = 0) {
  GroupConfig cfg;
  cfg.resilience = r;
  cfg.send_retry = Duration::millis(20);
  cfg.send_retries = 3;
  cfg.invite_interval = Duration::millis(20);
  cfg.status_poll = Duration::millis(20);
  return cfg;
}

std::vector<GroupMessage> app_messages(const SimProcess& p) {
  std::vector<GroupMessage> out;
  for (const auto& m : p.delivered()) {
    if (m.kind == MessageKind::app) out.push_back(m);
  }
  return out;
}

/// Oracle every recovery history: quiesce briefly so in-flight deliveries
/// land, then require conformance; `durable` lists the survivors that must
/// hold every ok-completed message.
void expect_conformant(SimGroupHarness& h,
                       std::vector<std::string> durable = {}) {
  h.run_until([] { return false; }, Duration::millis(300));
  check::OracleOptions opts;
  opts.durable_rings = std::move(durable);
  const auto v = h.check_conformance(opts);
  EXPECT_TRUE(v.ok()) << v.to_string() << h.traces().dump_text(200);
}

void pump(SimGroupHarness& h, std::size_t proc, int count, int* ok_count) {
  const Chain<int> pump([&h, proc, count, ok_count](
      const Chain<int>& next, int k) {
    if (k >= count) return;
    Buffer b(4);
    b[0] = static_cast<std::uint8_t>(proc);
    b[1] = static_cast<std::uint8_t>(k);
    h.process(proc).user_send(std::move(b), [ok_count, k, next](Status s) {
      if (s == Status::ok) ++*ok_count;
      next(k + 1);
    });
  });
  pump(0);
}

TEST(GroupRecovery, SequencerCrashThenResetElectsNewSequencer) {
  SimGroupHarness h(4, fast_cfg());
  ASSERT_TRUE(h.form_group());

  int sent = 0;
  pump(h, 1, 10, &sent);
  ASSERT_TRUE(h.run_until([&] { return sent == 10; }, Duration::seconds(30)));

  h.world().node(0).crash();

  // A send fails; the application reacts with ResetGroup.
  std::optional<Status> send_result;
  h.process(1).user_send(make_pattern_buffer(4),
                         [&](Status s) { send_result = s; });
  ASSERT_TRUE(h.run_until([&] { return send_result.has_value(); },
                          Duration::seconds(30)));
  EXPECT_EQ(*send_result, Status::timeout);

  std::optional<std::uint32_t> new_size;
  h.process(1).member().reset_group(2, [&](Status s, std::uint32_t n) {
    EXPECT_EQ(s, Status::ok);
    new_size = n;
  });
  ASSERT_TRUE(h.run_until([&] { return new_size.has_value(); },
                          Duration::seconds(60)));
  EXPECT_EQ(*new_size, 3u);

  // The coordinator is the new sequencer; everyone agrees.
  ASSERT_TRUE(h.run_until(
      [&] {
        return h.process(2).member().state() == GroupMember::State::running &&
               h.process(3).member().state() == GroupMember::State::running;
      },
      Duration::seconds(30)));
  const auto info1 = h.process(1).member().info();
  EXPECT_EQ(info1.sequencer, info1.my_id);
  EXPECT_EQ(h.process(2).member().info().sequencer, info1.my_id);
  EXPECT_GT(info1.incarnation, 0u);

  // The rebuilt group carries traffic again.
  int sent2 = 0;
  pump(h, 3, 5, &sent2);
  ASSERT_TRUE(h.run_until([&] { return sent2 == 5; }, Duration::seconds(30)));
  expect_conformant(h, {"m1", "m2", "m3"});
}

TEST(GroupRecovery, SurvivorsAgreeOnPrefixAfterCrash) {
  SimGroupHarness h(4, fast_cfg());
  ASSERT_TRUE(h.form_group());

  int sent = 0;
  for (std::size_t p = 0; p < 4; ++p) pump(h, p, 20, &sent);
  ASSERT_TRUE(h.run_until([&] { return sent == 80; }, Duration::seconds(60)));

  h.world().node(0).crash();
  std::optional<std::uint32_t> size;
  h.process(2).member().reset_group(2, [&](Status s, std::uint32_t n) {
    ASSERT_EQ(s, Status::ok);
    size = n;
  });
  ASSERT_TRUE(h.run_until(
      [&] {
        return size.has_value() &&
               h.process(1).member().state() == GroupMember::State::running &&
               h.process(3).member().state() == GroupMember::State::running;
      },
      Duration::seconds(60)));

  // Section 2.1 guarantee (1): every survivor has every message that was
  // successfully sent before the failure — their app streams agree.
  const auto a = app_messages(h.process(1));
  const auto b = app_messages(h.process(2));
  const auto c = app_messages(h.process(3));
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(b.size(), c.size());
  EXPECT_EQ(a.size(), 80u) << "all completed sends survive the crash";
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sender, b[i].sender);
    EXPECT_EQ(a[i].sender_msg_id, b[i].sender_msg_id);
    EXPECT_EQ(b[i].sender, c[i].sender);
    EXPECT_EQ(b[i].sender_msg_id, c[i].sender_msg_id);
  }
  expect_conformant(h, {"m1", "m2", "m3"});
}

TEST(GroupRecovery, ResilienceSurvivesRCrashes) {
  // r = 2: any 2 crashes leave every accepted message recoverable.
  SimGroupHarness h(5, fast_cfg(/*r=*/2));
  ASSERT_TRUE(h.form_group());

  int sent = 0;
  pump(h, 3, 30, &sent);
  pump(h, 4, 30, &sent);
  ASSERT_TRUE(h.run_until([&] { return sent == 60; }, Duration::seconds(60)));

  // Crash the sequencer AND one acker simultaneously (the worst allowed).
  h.world().node(0).crash();
  h.world().node(1).crash();

  std::optional<std::uint32_t> size;
  h.process(3).member().reset_group(2, [&](Status s, std::uint32_t n) {
    ASSERT_EQ(s, Status::ok);
    size = n;
  });
  ASSERT_TRUE(h.run_until(
      [&] {
        return size.has_value() &&
               h.process(2).member().state() == GroupMember::State::running &&
               h.process(4).member().state() == GroupMember::State::running;
      },
      Duration::seconds(60)));
  EXPECT_EQ(*size, 3u);

  // All 60 accepted messages must exist at every survivor, same order.
  for (const std::size_t p : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    EXPECT_EQ(app_messages(h.process(p)).size(), 60u) << "survivor " << p;
  }
  const auto a = app_messages(h.process(2));
  const auto b = app_messages(h.process(3));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sender, b[i].sender);
    EXPECT_EQ(a[i].sender_msg_id, b[i].sender_msg_id);
  }
  expect_conformant(h, {"m2", "m3", "m4"});
}

TEST(GroupRecovery, QuorumFailureBlocksRebuild) {
  SimGroupHarness h(4, fast_cfg());
  ASSERT_TRUE(h.form_group());
  h.world().node(0).crash();
  h.world().node(1).crash();
  h.world().node(2).crash();

  std::optional<Status> result;
  h.process(3).member().reset_group(/*min_size=*/3,
                                    [&](Status s, std::uint32_t) { result = s; });
  ASSERT_TRUE(h.run_until([&] { return result.has_value(); },
                          Duration::seconds(60)));
  EXPECT_EQ(*result, Status::quorum_unreachable)
      << "the group blocks until enough processors recover";
  EXPECT_EQ(h.process(3).member().state(), GroupMember::State::failed);

  // A later retry with an achievable quorum succeeds.
  std::optional<Status> retry;
  h.process(3).member().reset_group(1, [&](Status s, std::uint32_t n) {
    retry = s;
    EXPECT_EQ(n, 1u);
  });
  ASSERT_TRUE(h.run_until([&] { return retry.has_value(); },
                          Duration::seconds(60)));
  EXPECT_EQ(*retry, Status::ok);
  EXPECT_TRUE(h.process(3).member().i_am_sequencer());
  expect_conformant(h);
}

TEST(GroupRecovery, ConcurrentResetsConverge) {
  SimGroupHarness h(5, fast_cfg());
  ASSERT_TRUE(h.form_group());

  int sent = 0;
  pump(h, 2, 10, &sent);
  ASSERT_TRUE(h.run_until([&] { return sent == 10; }, Duration::seconds(30)));

  h.world().node(0).crash();

  // Three members race to coordinate.
  int done = 0;
  for (const std::size_t p : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    h.process(p).member().reset_group(2, [&](Status s, std::uint32_t) {
      EXPECT_EQ(s, Status::ok) << "racing reset at " << p;
      ++done;
    });
  }
  ASSERT_TRUE(h.run_until(
      [&] {
        if (done < 3) return false;
        for (const std::size_t p : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
          if (h.process(p).member().state() != GroupMember::State::running) {
            return false;
          }
        }
        return true;
      },
      Duration::seconds(120)));

  // One incarnation, one sequencer, everywhere.
  const auto ref = h.process(1).member().info();
  for (const std::size_t p : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    const auto info = h.process(p).member().info();
    EXPECT_EQ(info.incarnation, ref.incarnation);
    EXPECT_EQ(info.sequencer, ref.sequencer);
    EXPECT_EQ(info.size(), 4u);
  }

  int sent2 = 0;
  pump(h, 4, 5, &sent2);
  EXPECT_TRUE(h.run_until([&] { return sent2 == 5; }, Duration::seconds(30)));
  expect_conformant(h, {"m1", "m2", "m3", "m4"});
}

TEST(GroupRecovery, FailureDuringRecoveryRestarts) {
  SimGroupHarness h(5, fast_cfg());
  ASSERT_TRUE(h.form_group());
  int sent = 0;
  pump(h, 1, 10, &sent);
  ASSERT_TRUE(h.run_until([&] { return sent == 10; }, Duration::seconds(30)));

  h.world().node(0).crash();
  // Member 4 dies slightly after recovery begins (a voter disappearing).
  h.world().engine().schedule(Duration::millis(25),
                              [&] { h.world().node(4).crash(); });

  std::optional<std::uint32_t> size;
  h.process(1).member().reset_group(2, [&](Status s, std::uint32_t n) {
    ASSERT_EQ(s, Status::ok);
    size = n;
  });
  ASSERT_TRUE(h.run_until([&] { return size.has_value(); },
                          Duration::seconds(120)));
  EXPECT_LE(*size, 4u);
  EXPECT_GE(*size, 2u);
  int sent2 = 0;
  pump(h, 2, 5, &sent2);
  EXPECT_TRUE(h.run_until([&] { return sent2 == 5; }, Duration::seconds(60)));
  expect_conformant(h);
}

TEST(GroupRecovery, NonSequencerCrashOnlyNeedsExpelNotReset) {
  // Small history: the dead member pins it quickly, triggering the
  // sequencer's failure detector (detection is demand-driven). The sender
  // needs enough retry budget to ride out the stall until the expel.
  GroupConfig cfg = fast_cfg();
  cfg.history_size = 16;
  cfg.send_retries = 15;
  SimGroupHarness h(4, cfg);
  ASSERT_TRUE(h.form_group());
  h.world().node(2).crash();

  // Traffic keeps flowing; the sequencer is alive.
  int sent = 0;
  pump(h, 1, 60, &sent);
  ASSERT_TRUE(h.run_until(
      [&] { return sent == 60 && h.process(0).member().info().size() == 3; },
      Duration::seconds(120)));
  EXPECT_EQ(h.process(0).member().info().incarnation, 0u)
      << "no reset needed when the sequencer survives";
  expect_conformant(h, {"m0", "m1", "m3"});
}

TEST(GroupRecovery, OutstandingSendNotDuplicatedAcrossReset) {
  SimGroupHarness h(3, fast_cfg());
  ASSERT_TRUE(h.form_group());

  int sent = 0;
  pump(h, 1, 10, &sent);
  ASSERT_TRUE(h.run_until([&] { return sent == 10; }, Duration::seconds(30)));

  h.world().node(0).crash();
  std::optional<std::uint32_t> size;
  h.process(1).member().reset_group(2, [&](Status s, std::uint32_t n) {
    ASSERT_EQ(s, Status::ok);
    size = n;
  });
  ASSERT_TRUE(h.run_until(
      [&] {
        return size.has_value() &&
               h.process(2).member().state() == GroupMember::State::running;
      },
      Duration::seconds(60)));

  // No app message may appear twice at any survivor.
  for (const std::size_t p : {std::size_t{1}, std::size_t{2}}) {
    const auto msgs = app_messages(h.process(p));
    std::set<std::pair<MemberId, std::uint32_t>> seen;
    for (const auto& m : msgs) {
      EXPECT_TRUE(seen.insert({m.sender, m.sender_msg_id}).second)
          << "duplicate delivery at survivor " << p;
    }
  }
  expect_conformant(h, {"m1", "m2"});
}

TEST(GroupRecovery, NackServiceIsZeroEncodeFromTheFrameCache) {
  // The sequencer keeps the pre-encoded wire frame of every history entry;
  // a NACK is served by index + resend of those exact bytes. With PB and
  // r = 0 every cached entry is a final-form data frame, so the encoding
  // fallback must never fire: retransmission is O(1) per NACK with zero
  // payload encodes.
  GroupConfig cfg = fast_cfg();
  cfg.method = Method::pb;
  SimGroupHarness h(4, cfg);
  ASSERT_TRUE(h.form_group());
  h.world().segment().set_fault_plan(sim::FaultPlan{.loss_prob = 0.12});

  int ok = 0;
  for (std::size_t p = 0; p < 4; ++p) pump(h, p, 25, &ok);
  ASSERT_TRUE(h.run_until([&] { return ok == 100; }, Duration::seconds(120)));
  h.run_until([] { return false; }, Duration::millis(300));

  const GroupStats& s = h.process(0).member().stats();
  EXPECT_GT(s.retransmits_served.load(), 0u)
      << "12% loss must exercise the retransmit path";
  EXPECT_GT(s.retransmit_cache_hits.load(), 0u);
  EXPECT_EQ(s.retransmit_payload_encodes.load(), 0u)
      << "a NACK re-encoded a payload instead of resending the cached frame";
}

}  // namespace
}  // namespace amoeba::group
