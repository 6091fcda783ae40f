// Sharded Node tests: multi-group hosting, keyspace routing, and genuine
// cross-shard atomic multicast on the simulated testbed.
//
// The deterministic counterparts of the seed-swept sharded property test:
// formation, single-shard traffic through the unmodified protocol,
// exactly-once cross-shard delivery, genuineness (non-addressed shards do
// zero work), the single-bit fast path, and recovery of a cross-shard
// workload after a shard sequencer's station crashes.
#include <gtest/gtest.h>

#include <map>

#include "check/trace.hpp"
#include "sweep_steps.hpp"

namespace amoeba::group {
namespace {

GroupConfig quick_cfg(std::uint32_t resilience = 0) {
  GroupConfig cfg = prop::sweep_config();
  cfg.resilience = resilience;
  return cfg;
}

Buffer tagged(std::uint8_t a, std::uint8_t b) {
  Buffer buf(8);
  buf[0] = a;
  buf[1] = b;
  return buf;
}

TEST(Sharded, FormsAndDeliversSingleShardTraffic) {
  SimGroupHarness h(3, 2, quick_cfg());
  ASSERT_TRUE(h.form_group());

  int done = 0;
  std::vector<std::uint64_t> fps;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::uint32_t s = 0; s < 2; ++s) {
      Buffer b = tagged(static_cast<std::uint8_t>(i),
                        static_cast<std::uint8_t>(s));
      fps.push_back(check::fingerprint(Buffer(b)));
      h.process(i).node().send_to_shard(s, std::move(b), [&](Status st) {
        EXPECT_EQ(st, Status::ok);
        ++done;
      });
    }
  }
  ASSERT_TRUE(h.run_until([&] { return done == 6; }, Duration::seconds(30)));
  h.run_until([] { return false; }, Duration::millis(300));  // quiesce

  // Every process delivered every app payload exactly once, in the shard
  // it was addressed to, all with xid 0 (no cross-shard machinery).
  for (std::size_t i = 0; i < 3; ++i) {
    std::map<std::uint64_t, int> seen;
    for (const auto& d : h.process(i).shard_deliveries()) {
      EXPECT_EQ(d.xid, 0u);
      ++seen[d.fp];
    }
    for (const std::uint64_t fp : fps) EXPECT_EQ(seen[fp], 1) << "n" << i;
    EXPECT_EQ(h.process(i).node().stats().xsends.load(), 0u);
  }
  const auto v = h.check_conformance();
  EXPECT_TRUE(v.ok()) << v.to_string();
}

TEST(Sharded, RouteIsDeterministicAndCoversShards) {
  SimGroupHarness h(2, 4, quick_cfg());
  std::map<std::uint32_t, int> hits;
  for (int k = 0; k < 64; ++k) {
    Buffer key(4);
    key[0] = static_cast<std::uint8_t>(k);
    const std::uint32_t s0 = h.process(0).node().route(key);
    const std::uint32_t s1 = h.process(1).node().route(key);
    EXPECT_EQ(s0, s1);  // same shard set => same routing everywhere
    ASSERT_LT(s0, 4u);
    ++hits[s0];
  }
  EXPECT_EQ(hits.size(), 4u);  // 64 keys spread over all four shards
}

TEST(Sharded, CrossShardDeliversExactlyOncePerShard) {
  SimGroupHarness h(3, 2, quick_cfg());
  ASSERT_TRUE(h.form_group());

  int done = 0;
  constexpr int kPerNode = 5;
  for (std::size_t i = 0; i < 3; ++i) {
    for (int k = 0; k < kPerNode; ++k) {
      h.process(i).node().send_multi(
          h.all_mask(), tagged(static_cast<std::uint8_t>(i),
                               static_cast<std::uint8_t>(k)),
          [&](Status st) {
            EXPECT_EQ(st, Status::ok);
            ++done;
          });
    }
  }
  ASSERT_TRUE(h.run_until([&] { return done == 15; }, Duration::seconds(60)));
  h.run_until([] { return false; }, Duration::millis(500));

  // Exactly one delivery per (process, shard, xid), in both shards.
  for (std::size_t i = 0; i < 3; ++i) {
    std::map<std::pair<std::uint32_t, std::uint64_t>, int> seen;
    for (const auto& d : h.process(i).shard_deliveries()) {
      if (d.xid != 0) ++seen[{d.shard, d.xid}];  // skip membership entries
    }
    EXPECT_EQ(seen.size(), 2u * 15u) << "n" << i;
    for (const auto& [key, n] : seen) EXPECT_EQ(n, 1);
    EXPECT_EQ(h.process(i).node().stats().xsends.load(),
              static_cast<std::uint64_t>(kPerNode));
    EXPECT_EQ(h.process(i).node().stats().xsends_completed.load(),
              static_cast<std::uint64_t>(kPerNode));
    EXPECT_EQ(h.process(i).node().stats().xdup_dropped.load(), 0u);
  }
  const auto v = h.check_conformance();
  EXPECT_TRUE(v.ok()) << v.to_string() << h.traces().dump_text(200);
}

TEST(Sharded, SingleBitMaskTakesThePlainPath) {
  SimGroupHarness h(2, 2, quick_cfg());
  ASSERT_TRUE(h.form_group());
  int done = 0;
  h.process(0).node().send_multi(0b10, tagged(1, 1), [&](Status st) {
    EXPECT_EQ(st, Status::ok);
    ++done;
  });
  ASSERT_TRUE(h.run_until([&] { return done == 1; }, Duration::seconds(30)));
  h.run_until([] { return false; }, Duration::millis(300));
  // Degraded to send_to_shard: no cross-shard round, delivery has xid 0.
  EXPECT_EQ(h.process(0).node().stats().xsends.load(), 0u);
  bool delivered = false;
  for (const auto& d : h.process(1).shard_deliveries()) {
    if (d.shard == 1 && d.fp == check::fingerprint(tagged(1, 1))) {
      delivered = true;
      EXPECT_EQ(d.xid, 0u);
    }
  }
  EXPECT_TRUE(delivered);
}

TEST(Sharded, NonAddressedShardsDoZeroWork) {
  SimGroupHarness h(2, 4, quick_cfg());
  ASSERT_TRUE(h.form_group());

  int done = 0;
  for (int k = 0; k < 4; ++k) {
    h.process(0).node().send_multi(0b0011, tagged(0, static_cast<std::uint8_t>(k)),
                                   [&](Status st) {
                                     EXPECT_EQ(st, Status::ok);
                                     ++done;
                                   });
  }
  ASSERT_TRUE(h.run_until([&] { return done == 4; }, Duration::seconds(30)));
  h.run_until([] { return false; }, Duration::millis(300));

  // Shards 2 and 3 saw none of it: no cross-shard protocol state, no
  // deliveries — the genuineness property, observed from the inside.
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::uint32_t s = 2; s < 4; ++s) {
      const GroupStats& st = h.process(i).node().shard(s)->stats();
      EXPECT_EQ(st.xshard_proposals.load(), 0u) << "n" << i << ".s" << s;
      EXPECT_EQ(st.xshard_commits.load(), 0u) << "n" << i << ".s" << s;
      EXPECT_EQ(st.xshard_injected.load(), 0u) << "n" << i << ".s" << s;
    }
    for (const auto& d : h.process(i).shard_deliveries()) {
      if (d.xid != 0) {
        EXPECT_LT(d.shard, 2u);
      }
    }
  }
  const auto v = h.check_conformance();
  EXPECT_TRUE(v.ok()) << v.to_string();
}

TEST(Sharded, PerShardStatsAndTracesStayScoped) {
  // Two shards share one FLIP stack, executor, and fault device per
  // process; the per-shard GroupStats and trace streams must not bleed
  // into each other. All app traffic goes to shard 0 only.
  SimGroupHarness h(2, 2, quick_cfg());
  ASSERT_TRUE(h.form_group());

  int done = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    for (int k = 0; k < 4; ++k) {
      h.process(i).node().send_to_shard(
          0, tagged(static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(k)),
          [&](Status st) {
            EXPECT_EQ(st, Status::ok);
            ++done;
          });
    }
  }
  ASSERT_TRUE(h.run_until([&] { return done == 8; }, Duration::seconds(30)));
  h.run_until([] { return false; }, Duration::millis(300));  // quiesce

  // Stats: shard 0 carried the load; shard 1 saw only its own formation.
  EXPECT_EQ(h.process(0).node().shard(0)->stats().sends_completed.load() +
                h.process(1).node().shard(0)->stats().sends_completed.load(),
            8u);
  for (std::size_t i = 0; i < 2; ++i) {
    const GroupStats& idle = h.process(i).node().shard(1)->stats();
    EXPECT_EQ(idle.sends_completed.load(), 0u) << "n" << i;
    EXPECT_EQ(idle.sends_pb.load() + idle.sends_bb.load(), 0u) << "n" << i;
  }
  // Per-shard delivery counts diverge: shard 1 delivered only membership.
  EXPECT_GT(h.process(0).node().shard(0)->stats().messages_delivered.load(),
            h.process(0).node().shard(1)->stats().messages_delivered.load());

  // Traces: every event in a shard's ring carries that shard's group tag,
  // so a shared collector can never conflate the two streams.
  h.traces().drain();
  bool saw_g0_app = false;
  for (const check::RingTrace& r : h.traces().rings()) {
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::uint32_t s = 0; s < 2; ++s) {
        if (r.label != h.member_label(i, s)) continue;
        for (const check::TraceEvent& e : r.events) {
          EXPECT_EQ(e.group, s) << r.label;
          if (s == 0 && e.kind == check::EventKind::deliver &&
              e.mkind == MessageKind::app) {
            saw_g0_app = true;
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_g0_app);

  // The rendered forms carry the group tag too (tooling keys on it).
  const std::string json = h.traces().dump_json();
  EXPECT_NE(json.find("\"group\":1"), std::string::npos);
  const std::string text = h.traces().dump_text();
  EXPECT_NE(text.find("g1."), std::string::npos);

  const auto v = h.check_conformance();
  EXPECT_TRUE(v.ok()) << v.to_string();
}

TEST(Sharded, MixedLocalAndCrossTrafficStaysConsistent) {
  SimGroupHarness h(3, 2, quick_cfg(1));
  ASSERT_TRUE(h.form_group());

  int done = 0;
  int want = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    for (int k = 0; k < 6; ++k) {
      Buffer b = tagged(static_cast<std::uint8_t>(i),
                        static_cast<std::uint8_t>(k));
      auto cb = [&](Status st) {
        EXPECT_EQ(st, Status::ok);
        ++done;
      };
      ++want;
      if (k % 3 == 0) {
        h.process(i).node().send_multi(h.all_mask(), std::move(b), cb);
      } else {
        h.process(i).node().send_to_shard(static_cast<std::uint32_t>(k) % 2,
                                          std::move(b), cb);
      }
    }
  }
  ASSERT_TRUE(h.run_until([&] { return done == want; }, Duration::seconds(60)));
  h.run_until([] { return false; }, Duration::millis(500));
  const auto v = h.check_conformance();
  EXPECT_TRUE(v.ok()) << v.to_string() << h.traces().dump_text(300);
}

TEST(Sharded, CrossShardSurvivesSequencerStationCrash) {
  // Node 0 created (and sequences) shard 0; shard 1's sequencer is node 1.
  // Crashing station 0 kills shard 0's sequencer and a plain member of
  // shard 1. Survivors reset shard 0 and the cross-shard workload resumes
  // with the oracle still clean.
  SimGroupHarness h(3, 2, quick_cfg(1));
  ASSERT_TRUE(h.form_group());

  int done = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    h.process(i).node().send_multi(h.all_mask(),
                                   tagged(static_cast<std::uint8_t>(i), 0xA),
                                   [&](Status) { ++done; });
  }
  ASSERT_TRUE(h.run_until([&] { return done == 3; }, Duration::seconds(60)));

  h.process(0).faults().crash();

  // Probe shard 0 from node 1 until the dead sequencer is noticed, then
  // reset it there.
  const auto probe = [&h](GroupMember::StatusCb probe_done) {
    h.process(1).node().send_to_shard(0, tagged(9, 9), std::move(probe_done));
  };
  ASSERT_EQ(prop::probe_then_reset(h, 1, 0, probe), "");
  ASSERT_TRUE(h.run_until(
      [&] {
        for (std::size_t i = 1; i < 3; ++i) {
          for (std::uint32_t s = 0; s < 2; ++s) {
            if (h.process(i).node().shard(s)->state() !=
                GroupMember::State::running) {
              return false;
            }
          }
        }
        return true;
      },
      Duration::seconds(30)));

  // Post-recovery cross-shard phase from the survivors.
  int done_b = 0;
  for (std::size_t i = 1; i < 3; ++i) {
    for (int k = 0; k < 3; ++k) {
      h.process(i).node().send_multi(
          h.all_mask(), tagged(static_cast<std::uint8_t>(i),
                               static_cast<std::uint8_t>(0xB0 + k)),
          [&](Status st) {
            EXPECT_EQ(st, Status::ok);
            ++done_b;
          });
    }
  }
  ASSERT_TRUE(h.run_until([&] { return done_b == 6; }, Duration::seconds(60)));
  h.run_until([] { return false; }, Duration::millis(800));

  check::OracleOptions opts;
  for (std::size_t i = 1; i < 3; ++i) {
    for (std::uint32_t s = 0; s < 2; ++s) {
      if (h.process(i).node().shard(s)->state() ==
          GroupMember::State::running) {
        opts.durable_rings.push_back(h.member_label(i, s));
      }
    }
  }
  const auto v = h.check_conformance(opts);
  EXPECT_TRUE(v.ok()) << v.to_string() << h.traces().dump_text(400);

  // No survivor saw a duplicate xid despite retries across the reset.
  for (std::size_t i = 1; i < 3; ++i) {
    std::map<std::pair<std::uint32_t, std::uint64_t>, int> seen;
    for (const auto& d : h.process(i).shard_deliveries()) {
      if (d.xid != 0) ++seen[{d.shard, d.xid}];
    }
    for (const auto& [key, n] : seen) EXPECT_EQ(n, 1) << "n" << i;
  }
}

}  // namespace
}  // namespace amoeba::group
