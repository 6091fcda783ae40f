// Sequencer-transfer extension tests (the Section 5 "migrating sequencer"
// retrospective): explicit hand-off of the ordering role without
// departure.
#include <gtest/gtest.h>

#include "common/chain.hpp"
#include "group/sim_harness.hpp"

namespace amoeba::group {
namespace {

TEST(GroupHandoff, TransferMovesRoleAndKeepsMembership) {
  SimGroupHarness h(4, GroupConfig{});
  ASSERT_TRUE(h.form_group());
  ASSERT_TRUE(h.process(0).member().i_am_sequencer());

  std::optional<Status> result;
  h.process(0).member().transfer_sequencer(2, [&](Status s) { result = s; });
  ASSERT_TRUE(h.run_until(
      [&] {
        if (!result.has_value()) return false;
        for (std::size_t p = 0; p < 4; ++p) {
          if (h.process(p).member().info().sequencer != 2u) return false;
        }
        return true;
      },
      Duration::seconds(10)));
  EXPECT_EQ(*result, Status::ok);

  // Everyone still a member; everyone agrees on the new sequencer.
  for (std::size_t p = 0; p < 4; ++p) {
    const GroupInfo info = h.process(p).member().info();
    EXPECT_EQ(info.size(), 4u) << "member " << p;
    EXPECT_EQ(info.sequencer, 2u) << "member " << p;
  }
  EXPECT_FALSE(h.process(0).member().i_am_sequencer());
}

TEST(GroupHandoff, TrafficContinuesAfterTransfer) {
  SimGroupHarness h(3, GroupConfig{});
  ASSERT_TRUE(h.form_group());

  std::optional<Status> transferred;
  h.process(0).member().transfer_sequencer(1,
                                           [&](Status s) { transferred = s; });
  ASSERT_TRUE(h.run_until([&] { return transferred.has_value(); },
                          Duration::seconds(10)));

  int done = 0;
  for (std::size_t p = 0; p < 3; ++p) {
    h.process(p).user_send(make_pattern_buffer(32), [&](Status s) {
      EXPECT_EQ(s, Status::ok);
      ++done;
    });
  }
  ASSERT_TRUE(h.run_until(
      [&] {
        if (done < 3) return false;
        for (std::size_t p = 0; p < 3; ++p) {
          std::size_t apps = 0;
          for (const auto& m : h.process(p).delivered()) {
            if (m.kind == MessageKind::app) ++apps;
          }
          if (apps < 3) return false;
        }
        return true;
      },
      Duration::seconds(10)));

  // Total order preserved across the hand-off boundary.
  const auto& ref = h.process(0).delivered();
  const auto& got = h.process(2).delivered();
  std::size_t ri = 0, gi = 0;
  while (ri < ref.size() && gi < got.size()) {
    if (seq_lt(ref[ri].seq, got[gi].seq)) {
      ++ri;
    } else if (seq_lt(got[gi].seq, ref[ri].seq)) {
      ++gi;
    } else {
      EXPECT_EQ(ref[ri].sender, got[gi].sender);
      ++ri;
      ++gi;
    }
  }
}

TEST(GroupHandoff, TransferDuringTrafficDrainsFirst) {
  SimGroupHarness h(3, GroupConfig{});
  ASSERT_TRUE(h.form_group());

  // Keep a sender busy while the transfer is requested.
  int sent = 0;
  const Chain<int> pump([&](const Chain<int>& next, int k) {
    if (k >= 30) return;
    h.process(2).user_send(make_pattern_buffer(16), [&, k, next](Status s) {
      if (s == Status::ok) ++sent;
      next(k + 1);
    });
  });
  pump(0);

  std::optional<Status> transferred;
  h.engine().schedule(Duration::millis(10), [&] {
    h.process(0).member().transfer_sequencer(1,
                                             [&](Status s) { transferred = s; });
  });

  ASSERT_TRUE(h.run_until(
      [&] {
        if (!transferred.has_value() || sent < 30) return false;
        for (std::size_t p = 0; p < 3; ++p) {
          std::size_t apps = 0;
          for (const auto& m : h.process(p).delivered()) {
            if (m.kind == MessageKind::app) ++apps;
          }
          if (apps < 30) return false;
        }
        return true;
      },
      Duration::seconds(60)));
  EXPECT_EQ(*transferred, Status::ok);
  EXPECT_TRUE(h.process(1).member().i_am_sequencer());
  // Every message was delivered exactly once at every member despite the
  // mid-stream role change.
  for (std::size_t p = 0; p < 3; ++p) {
    std::size_t apps = 0;
    for (const auto& m : h.process(p).delivered()) {
      if (m.kind == MessageKind::app) ++apps;
    }
    EXPECT_EQ(apps, 30u) << "member " << p;
  }
}

TEST(GroupHandoff, InvalidTransfersRejected) {
  SimGroupHarness h(3, GroupConfig{});
  ASSERT_TRUE(h.form_group());

  std::optional<Status> r1;
  h.process(1).member().transfer_sequencer(2, [&](Status s) { r1 = s; });
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(*r1, Status::invalid_argument) << "only the sequencer may transfer";

  std::optional<Status> r2;
  h.process(0).member().transfer_sequencer(99, [&](Status s) { r2 = s; });
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(*r2, Status::not_member);

  std::optional<Status> r3;
  h.process(0).member().transfer_sequencer(0, [&](Status s) { r3 = s; });
  ASSERT_TRUE(r3.has_value());
  EXPECT_EQ(*r3, Status::ok) << "self-transfer is a no-op";
  EXPECT_TRUE(h.process(0).member().i_am_sequencer());
}

TEST(GroupHandoff, ChainedTransfersRotateTheRole) {
  SimGroupHarness h(4, GroupConfig{});
  ASSERT_TRUE(h.form_group());
  MemberId holder = 0;
  for (const MemberId next_holder : {1u, 2u, 3u, 0u}) {
    std::optional<Status> r;
    // Find the process currently holding the role (ids == indices here).
    h.process(holder).member().transfer_sequencer(next_holder,
                                                  [&](Status s) { r = s; });
    ASSERT_TRUE(h.run_until(
        [&] {
          return r.has_value() &&
                 h.process(next_holder).member().i_am_sequencer();
        },
        Duration::seconds(10)))
        << "transfer " << holder << " -> " << next_holder;
    EXPECT_EQ(*r, Status::ok);
    holder = next_holder;
  }
}

}  // namespace
}  // namespace amoeba::group
