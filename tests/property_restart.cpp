// Seed-swept crash-restart-with-disk properties ("restart nemesis").
//
// Each case forms a 4-member durable group, drives traffic, crashes one or
// more members WITH their disks (unsynced bytes lost, per the MemStorage
// crash model), restarts them from those disks, rejoins them, drives more
// traffic, and hands the full multi-life trace to the ConformanceOracle
// with `restart_pairs` set — so every pre-crash fsync report is held
// against what recovery actually brought back, on top of all the standing
// ordering/durability invariants.
//
// Scenarios (hashed from the parameters, like tests/property_harness.cpp):
//   0: one non-sequencer member crash-restarts mid-traffic and rejoins
//   1: max(1, r) members crash simultaneously, then all restart + rejoin
//   2: the SEQUENCER crashes with its disk; a survivor runs ResetGroup;
//      the ex-sequencer then restarts from disk and rejoins the new view
//
// Sweep: AMOEBA_RESTART_SEEDS (default 3) seeds x {PB, BB} x r in {0,1,2}
// x durability in {async, group_commit}. CI runs the default on PRs and a
// 200-seed sweep nightly (tests/CMakeLists.txt).
//
// RestartMutationSmoke is the regression for the new oracle obligations:
// it tampers with a healthy restart trace the way a real recovery bug
// would (a recovered record rewritten / dropped) and fails if the oracle
// does NOT flag it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "sweep_steps.hpp"

namespace amoeba::group::prop {
namespace {

struct RestartParams {
  std::uint64_t seed{1};
  Method method{Method::pb};
  std::uint32_t resilience{0};
  Durability durability{Durability::group_commit};
};

int pick_restart_scenario(const RestartParams& p) {
  std::uint64_t h = p.seed * 0x9E3779B97F4A7C15ULL;
  h ^= (static_cast<std::uint64_t>(p.method) << 11) ^
       (static_cast<std::uint64_t>(p.resilience) << 5) ^
       (static_cast<std::uint64_t>(p.durability) << 2);
  h *= 0xBF58476D1CE4E5B9ULL;
  return static_cast<int>((h >> 33) % 3);
}

const char* restart_scenario_name(int sc) {
  switch (sc) {
    case 0: return "member-restart";
    case 1: return "simultaneous-restarts";
    case 2: return "sequencer-restart";
    default: return "?";
  }
}

std::string describe(const RestartParams& p, int sc) {
  return "seed=" + std::to_string(p.seed) +
         " method=" + (p.method == Method::pb ? "pb" : "bb") +
         " r=" + std::to_string(p.resilience) + " durability=" +
         (p.durability == Durability::async ? "async" : "group_commit") +
         " scenario=" + restart_scenario_name(sc);
}

struct RestartOutcome {
  bool formed{false};
  int scenario{-1};
  bool ok_flow{true};  // crash/restart/rejoin plumbing all completed
  check::Verdict verdict{};
  std::string report;
};

RestartOutcome run_restart_case(const RestartParams& p) {
  constexpr std::size_t kMembers = 4;
  const int sc = pick_restart_scenario(p);

  GroupConfig cfg = sweep_config();
  cfg.resilience = p.resilience;
  cfg.method = p.method;
  cfg.durability = p.durability;
  cfg.fsync_interval = Duration::millis(10);
  // The failure detector only probes laggards under history pressure; a
  // small window makes post-crash traffic build that pressure quickly.
  cfg.history_size = 16;
  cfg.status_poll = Duration::millis(20);
  cfg.status_retries = 3;

  SimGroupHarness h(kMembers, cfg, sim::CostModel::mc68030_ether10(), p.seed);
  for (std::size_t i = 0; i < kMembers; ++i) {
    h.process(i).enable_durability();
  }

  RestartOutcome out;
  out.scenario = sc;
  out.formed = h.form_group();
  if (!out.formed) {
    out.report = "group formation failed: " + describe(p, sc);
    return out;
  }
  auto fail = [&](const std::string& what) {
    out.ok_flow = false;
    out.report = what + ": " + describe(p, sc) + "\n" +
                 h.traces().dump_text(300);
    return out;
  };

  // --- Phase A: traffic from everyone ---------------------------------------
  if (!run_send_phase(h, {0, 1, 2, 3}, 4, user_send_step(h, 0xA),
                      Duration::seconds(60))) {
    return fail("phase A stalled");
  }
  // Let fsync timers / piggybacked horizons settle before the crash.
  h.run_until([] { return false; }, Duration::millis(60));

  // --- Crash with disk ------------------------------------------------------
  std::vector<std::size_t> victims;
  if (sc == 0) {
    victims = {1 + (p.seed % 3)};  // any non-sequencer member
  } else if (sc == 1) {
    const std::size_t n = std::max<std::uint32_t>(1, p.resilience);
    for (std::size_t k = 0; k < n; ++k) victims.push_back(3 - k);
  } else {
    victims = {0};  // the sequencer
  }
  for (std::size_t v : victims) h.crash_process(v);

  if (sc == 2) {
    const std::string err = probe_then_reset(h, 1, 0, [&h](auto done) {
      Buffer b(8);
      b[2] = 0xF;
      h.process(1).user_send(std::move(b), std::move(done));
    });
    if (!err.empty()) return fail(err);
  } else {
    // The survivors' failure detector expels the dead member(s) — but only
    // under history pressure, so keep the sequencer sending while waiting.
    // Fire-and-forget and time-paced: with r >= 1 a send whose resilience
    // ackers include a dead member cannot complete until the expel, so a
    // chained filler would deadlock against the very pressure it feeds.
    Time last_fill = h.engine().now() - Duration::seconds(1);
    int fills = 0;
    if (!h.run_until(
            [&] {
              const bool expelled = h.process(0).member().info().size() ==
                                    kMembers - victims.size();
              if (!expelled && fills < 200 &&
                  h.engine().now() - last_fill >= Duration::millis(10)) {
                last_fill = h.engine().now();
                ++fills;
                Buffer b(8);
                b[2] = 0xE;  // filler tag
                h.process(0).user_send(std::move(b), [](Status) {});
              }
              return expelled;
            },
            Duration::seconds(60))) {
      return fail("victims never expelled");
    }
  }

  // --- Restart from disk + rejoin ------------------------------------------
  std::vector<check::OracleOptions::RestartPair> pairs;
  int rejoined = 0;
  for (std::size_t v : victims) {
    Status recovered = Status::failure;
    pairs.push_back(h.restart_process(v, &recovered));
    if (recovered == Status::ok) {
      h.process(v).member().rejoin_group([&](Status s) {
        if (s == Status::ok) ++rejoined;
      });
    } else {
      // Disk held no usable view (crash before the first barrier): the
      // member starts over as a fresh joiner. Restart obligations still
      // hold — an empty recovery is only legal if nothing was synced.
      h.process(v).member().join_group(h.group_addr(), [&](Status s) {
        if (s == Status::ok) ++rejoined;
      });
    }
  }
  if (!h.run_until([&] { return rejoined == static_cast<int>(victims.size()); },
                   Duration::seconds(60))) {
    return fail("restarted member(s) never rejoined");
  }

  // --- Phase B: traffic including the restarted members ---------------------
  const auto running = [&h](std::size_t i) {
    return h.process(i).member().state() == GroupMember::State::running;
  };
  std::vector<std::size_t> senders;
  for (std::size_t i = 0; i < kMembers; ++i) {
    if (running(i)) senders.push_back(i);
  }
  if (!run_send_phase(h, senders, 3, user_send_step(h, 0xB),
                      Duration::seconds(60), running)) {
    return fail("phase B stalled");
  }

  // --- Quiesce, then judge --------------------------------------------------
  quiesce(h);

  check::OracleOptions opts;
  opts.restart_pairs = pairs;
  // Durable-ring claims only for lives that span the whole run: a
  // restarted member's post ring holds just the post-rejoin suffix. A
  // sequencer crash can lose messages with r = 0.
  claim_durable_rings(opts, h, victims, [&](std::uint32_t) {
    return sc == 2 && p.resilience < 1;
  });
  out.verdict = h.check_conformance(opts);
  if (!out.verdict.ok()) {
    out.report = "oracle violation: " + describe(p, sc) + "\n" +
                 out.verdict.to_string() + h.traces().dump_text(400);
  }
  return out;
}

std::vector<RestartParams> sweep_params() {
  const int seeds = env_count("AMOEBA_RESTART_SEEDS", 3);
  std::vector<RestartParams> out;
  for (int s = 0; s < seeds; ++s) {
    for (const Method m : {Method::pb, Method::bb}) {
      for (const std::uint32_t r : {0u, 1u, 2u}) {
        for (const Durability d :
             {Durability::async, Durability::group_commit}) {
          out.push_back(RestartParams{
              .seed = 7000 + static_cast<std::uint64_t>(s), .method = m,
              .resilience = r, .durability = d});
        }
      }
    }
  }
  return out;
}

class RestartPropertySweep : public ::testing::TestWithParam<RestartParams> {};

TEST_P(RestartPropertySweep, RestartObligationsHoldUnderCrashes) {
  const RestartParams p = GetParam();
  const RestartOutcome out = run_restart_case(p);
  ASSERT_TRUE(out.formed) << out.report;
  ASSERT_TRUE(out.ok_flow) << out.report;
  EXPECT_TRUE(out.verdict.ok()) << out.report;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RestartPropertySweep, ::testing::ValuesIn(sweep_params()),
    [](const ::testing::TestParamInfo<RestartParams>& ti) {
      const RestartParams& p = ti.param;
      std::string sc = restart_scenario_name(pick_restart_scenario(p));
      for (char& c : sc) {
        if (c == '-') c = '_';
      }
      return "seed" + std::to_string(p.seed) +
             (p.method == Method::pb ? "_pb" : "_bb") + "_r" +
             std::to_string(p.resilience) +
             (p.durability == Durability::async ? "_async" : "_gc") + "_" + sc;
    });

// ---------------------------------------------------------------------------
// Mutation smoke: tamper with a healthy restart trace the way a recovery
// bug would, and prove the oracle's restart obligations catch it.
// ---------------------------------------------------------------------------

struct RestartTrace {
  std::vector<check::RingTrace> rings;
  check::OracleOptions opts;
};

RestartTrace healthy_restart_trace() {
  GroupConfig cfg;
  cfg.durability = Durability::group_commit;
  cfg.status_interval = Duration::millis(100);
  SimGroupHarness h(3, cfg, sim::CostModel::mc68030_ether10(), 31337);
  for (std::size_t i = 0; i < 3; ++i) h.process(i).enable_durability();
  EXPECT_TRUE(h.form_group());

  int acked = 0;
  for (int k = 0; k < 8; ++k) {
    Buffer b(8);
    b[1] = static_cast<std::uint8_t>(k);
    h.process(0).user_send(std::move(b), [&](Status s) {
      if (s == Status::ok) ++acked;
    });
  }
  EXPECT_TRUE(h.run_until([&] { return acked == 8; }, Duration::seconds(30)));
  h.run_until([] { return false; }, Duration::millis(300));

  h.crash_process(2);
  Status recovered = Status::failure;
  const auto pair = h.restart_process(2, &recovered);
  EXPECT_EQ(recovered, Status::ok);
  h.run_until([] { return false; }, Duration::millis(100));

  RestartTrace out;
  out.opts.first_seq = cfg.first_seq;
  out.opts.restart_pairs.push_back(pair);
  h.traces().drain();
  out.rings = h.traces().rings();
  return out;
}

bool flags_restart(const check::Verdict& v) {
  for (const check::Violation& x : v.violations) {
    if (x.invariant == "restart") return true;
  }
  return false;
}

TEST(RestartMutationSmoke, RewrittenRecoveredRecordIsCaught) {
  RestartTrace t = healthy_restart_trace();
  ASSERT_TRUE(check::ConformanceOracle::check(t.rings, t.opts).ok());

  // A recovery bug that rewrites history: one recovered record comes back
  // with a different payload/sender identity than the group delivered.
  bool mutated = false;
  for (check::RingTrace& r : t.rings) {
    if (r.label != t.opts.restart_pairs[0].post) continue;
    for (check::TraceEvent& e : r.events) {
      if (e.kind == check::EventKind::log_recover &&
          e.mkind == MessageKind::app) {
        e.msg_id += 100;
        e.a ^= 0xDEADBEEF;
        mutated = true;
        break;
      }
    }
  }
  ASSERT_TRUE(mutated) << "no recovered app record to tamper with";
  const auto v = check::ConformanceOracle::check(t.rings, t.opts);
  ASSERT_FALSE(v.ok()) << "oracle missed a rewritten recovered record";
  EXPECT_TRUE(flags_restart(v)) << v.to_string();
}

TEST(RestartMutationSmoke, DroppedRecoveredRecordIsCaught) {
  RestartTrace t = healthy_restart_trace();
  ASSERT_TRUE(check::ConformanceOracle::check(t.rings, t.opts).ok());

  // A recovery bug that silently loses a synced record: remove one
  // log_recover event from the middle of the recovered run.
  bool dropped = false;
  for (check::RingTrace& r : t.rings) {
    if (r.label != t.opts.restart_pairs[0].post) continue;
    std::vector<std::size_t> recovers;
    for (std::size_t i = 0; i < r.events.size(); ++i) {
      if (r.events[i].kind == check::EventKind::log_recover) {
        recovers.push_back(i);
      }
    }
    if (recovers.size() >= 3) {
      r.events.erase(r.events.begin() +
                     static_cast<std::ptrdiff_t>(recovers[recovers.size() / 2]));
      dropped = true;
    }
  }
  ASSERT_TRUE(dropped) << "not enough recovered records to drop one";
  const auto v = check::ConformanceOracle::check(t.rings, t.opts);
  ASSERT_FALSE(v.ok()) << "oracle missed a dropped recovered record";
  EXPECT_TRUE(flags_restart(v)) << v.to_string();
}

}  // namespace
}  // namespace amoeba::group::prop
