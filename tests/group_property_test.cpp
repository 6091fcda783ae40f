// Property-based tests: the protocol's safety invariants under randomized
// fault schedules, swept over seeds, loss rates, methods, and resilience
// degrees with parameterized gtest.
//
// Invariants checked (the classic total-order broadcast properties):
//   - Agreement / total order: all members deliver identical sequences
//     (compared pairwise over the common seq range).
//   - Integrity: no message is delivered twice, and every delivered app
//     message was actually sent by its claimed sender.
//   - Validity: every send completed with ok is delivered by all members
//     that stay in the group.
//   - Sender FIFO: messages from one sender are delivered in send order.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/chain.hpp"
#include "group/sim_harness.hpp"

namespace amoeba::group {
namespace {

struct PropertyParams {
  std::uint64_t seed;
  double loss;
  double dup;
  double garble;
  Method method;
  std::uint32_t resilience;
  std::size_t members;
  int per_sender;
};

std::string param_name(const ::testing::TestParamInfo<PropertyParams>& param_info) {
  const auto& p = param_info.param;
  std::string m = p.method == Method::pb   ? "pb"
                  : p.method == Method::bb ? "bb"
                                           : "dyn";
  return "seed" + std::to_string(p.seed) + "_loss" +
         std::to_string(int(p.loss * 100)) + "_dup" +
         std::to_string(int(p.dup * 100)) + "_" + m + "_r" +
         std::to_string(p.resilience) + "_n" + std::to_string(p.members);
}

class GroupProperty : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(GroupProperty, SafetyInvariantsHold) {
  const PropertyParams& p = GetParam();
  GroupConfig cfg;
  cfg.method = p.method;
  cfg.resilience = p.resilience;
  SimGroupHarness h(p.members, cfg, sim::CostModel::mc68030_ether10(),
                    p.seed);
  ASSERT_TRUE(h.form_group());
  h.world().segment().set_fault_plan(sim::FaultPlan{
      .loss_prob = p.loss, .duplicate_prob = p.dup, .garble_prob = p.garble});

  // Every member sends `per_sender` chained messages whose payload encodes
  // (sender, k).
  int completed = 0;
  std::vector<int> completed_per(p.members, 0);
  for (std::size_t proc = 0; proc < p.members; ++proc) {
    const Chain<int> pump([&h, &completed, &completed_per, proc,
                           per = p.per_sender](const Chain<int>& next, int k) {
      if (k >= per) return;
      Buffer b(8);
      b[0] = static_cast<std::uint8_t>(proc);
      b[1] = static_cast<std::uint8_t>(k);
      b[2] = static_cast<std::uint8_t>(k >> 8);
      h.process(proc).user_send(
          std::move(b), [&completed, &completed_per, proc, k, next](Status s) {
            if (s == Status::ok) {
              ++completed;
              ++completed_per[proc];
            }
            next(k + 1);
          });
    });
    pump(0);
  }

  const int total = static_cast<int>(p.members) * p.per_sender;
  const bool finished = h.run_until(
      [&] {
        if (completed < total) return false;
        for (std::size_t i = 0; i < p.members; ++i) {
          std::size_t apps = 0;
          for (const auto& m : h.process(i).delivered()) {
            if (m.kind == MessageKind::app) ++apps;
          }
          if (apps < static_cast<std::size_t>(total)) return false;
        }
        return true;
      },
      Duration::seconds(600));
  ASSERT_TRUE(finished) << "completed " << completed << "/" << total;

  // --- Agreement / total order ------------------------------------------
  const auto& ref = h.process(0).delivered();
  for (std::size_t i = 1; i < p.members; ++i) {
    const auto& got = h.process(i).delivered();
    std::size_t ri = 0, gi = 0;
    while (ri < ref.size() && gi < got.size()) {
      if (seq_lt(ref[ri].seq, got[gi].seq)) {
        ++ri;
      } else if (seq_lt(got[gi].seq, ref[ri].seq)) {
        ++gi;
      } else {
        ASSERT_EQ(ref[ri].sender, got[gi].sender)
            << "order divergence at seq " << ref[ri].seq << " member " << i;
        ASSERT_EQ(ref[ri].sender_msg_id, got[gi].sender_msg_id);
        ASSERT_EQ(ref[ri].data, got[gi].data);
        ++ri;
        ++gi;
      }
    }
  }

  for (std::size_t i = 0; i < p.members; ++i) {
    const auto& msgs = h.process(i).delivered();
    // --- Integrity: exactly-once, untampered ---------------------------
    std::set<std::pair<MemberId, std::uint32_t>> seen;
    std::map<MemberId, int> last_k;
    SeqNum prev_seq = 0;
    bool first = true;
    for (const auto& m : msgs) {
      if (!first) {
        ASSERT_TRUE(seq_lt(prev_seq, m.seq)) << "non-monotonic delivery";
      }
      prev_seq = m.seq;
      first = false;
      if (m.kind != MessageKind::app) continue;
      ASSERT_TRUE(seen.insert({m.sender, m.sender_msg_id}).second)
          << "duplicate delivery at member " << i;
      ASSERT_GE(m.data.size(), 3u);
      const int sender_in_payload = m.data[0];
      const int k = m.data[1] | (m.data[2] << 8);
      ASSERT_EQ(static_cast<MemberId>(sender_in_payload), m.sender)
          << "payload attribution mismatch";
      // --- Sender FIFO --------------------------------------------------
      auto [it, inserted] = last_k.try_emplace(m.sender, -1);
      ASSERT_GT(k, it->second) << "FIFO violation for sender " << m.sender;
      it->second = k;
    }
    // --- Validity -------------------------------------------------------
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(total))
        << "member " << i << " missed completed sends";
  }
}

INSTANTIATE_TEST_SUITE_P(
    LossSweep, GroupProperty,
    ::testing::Values(
        PropertyParams{1, 0.00, 0.00, 0.00, Method::pb, 0, 4, 25},
        PropertyParams{2, 0.05, 0.00, 0.00, Method::pb, 0, 4, 25},
        PropertyParams{3, 0.15, 0.00, 0.00, Method::pb, 0, 4, 25},
        PropertyParams{4, 0.05, 0.00, 0.00, Method::bb, 0, 4, 25},
        PropertyParams{5, 0.15, 0.00, 0.00, Method::bb, 0, 4, 25},
        PropertyParams{6, 0.05, 0.05, 0.05, Method::dynamic, 0, 4, 25},
        PropertyParams{7, 0.10, 0.10, 0.00, Method::pb, 0, 3, 30},
        PropertyParams{8, 0.10, 0.00, 0.10, Method::bb, 0, 3, 30}),
    param_name);

INSTANTIATE_TEST_SUITE_P(
    ResilienceSweep, GroupProperty,
    ::testing::Values(
        PropertyParams{11, 0.00, 0.00, 0.00, Method::pb, 1, 4, 20},
        PropertyParams{12, 0.05, 0.00, 0.00, Method::pb, 1, 4, 20},
        PropertyParams{13, 0.05, 0.00, 0.00, Method::pb, 2, 5, 15},
        PropertyParams{14, 0.05, 0.05, 0.00, Method::bb, 2, 5, 15},
        PropertyParams{15, 0.10, 0.00, 0.05, Method::pb, 3, 6, 10}),
    param_name);

INSTANTIATE_TEST_SUITE_P(
    SeedSweep, GroupProperty,
    ::testing::Values(
        PropertyParams{21, 0.08, 0.03, 0.03, Method::pb, 0, 5, 20},
        PropertyParams{22, 0.08, 0.03, 0.03, Method::pb, 0, 5, 20},
        PropertyParams{23, 0.08, 0.03, 0.03, Method::bb, 1, 5, 20},
        PropertyParams{24, 0.08, 0.03, 0.03, Method::dynamic, 1, 5, 20},
        PropertyParams{25, 0.08, 0.03, 0.03, Method::dynamic, 2, 5, 20}),
    param_name);

// Larger group, light faults: the 30-member testbed configuration.
INSTANTIATE_TEST_SUITE_P(
    TestbedScale, GroupProperty,
    ::testing::Values(
        PropertyParams{31, 0.02, 0.00, 0.00, Method::pb, 0, 12, 8},
        PropertyParams{32, 0.02, 0.01, 0.01, Method::dynamic, 0, 16, 6}),
    param_name);

}  // namespace
}  // namespace amoeba::group
