// Seed-swept property harness: one randomized workload + nemesis schedule
// per (seed, method, resilience) triple, checked by the ConformanceOracle.
//
// Each case forms a 4-member group on the simulated testbed, installs a
// deterministic nemesis scenario picked by hashing the parameters —
//
//   0: background noise only (drop / duplicate / corrupt / delay)
//   1: noise + a both-ways partition of member 3, healed mid-run
//   2: noise + member 3 (a plain receiver) crashes and is expelled
//   3: noise + the SEQUENCER crashes; member 1 runs ResetGroup and the
//      survivors continue with a second send phase under the new view
//
// — drives chained sends from every member, quiesces, and hands the full
// event trace to the oracle. On a violation the report carries the seed,
// the parameters, and the merged trace dump, so any failure replays with
// `--gtest_filter=...` on the printed case name.
//
// Durability claims are scoped to what the protocol actually promises:
// members whose final state is `running` must hold every message that was
// delivered anywhere; after a sequencer crash that claim additionally
// needs r >= 1 (with r = 0 a message can die with the sequencer).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "sweep_steps.hpp"

namespace amoeba::group::prop {

struct PropertyParams {
  std::uint64_t seed{1};
  Method method{Method::pb};
  std::uint32_t resilience{0};
  // Sequencer packing cap for the case: 1 disables batching entirely (every
  // message rides its own seq_data frame), larger values exercise the
  // seq_packed / seq_accept_range path under the same nemesis schedules.
  std::size_t batch_count{16};
};

struct PropertyOutcome {
  bool formed{false};
  int scenario{-1};
  bool reset_ok{true};  // scenario 3 only: ResetGroup completed with ok
  check::Verdict verdict{};
  std::string report;       // params + trace dump; filled on any failure
  std::uint64_t injected{0};  // faults the nemesis actually applied
};

inline const char* scenario_name(int sc) {
  switch (sc) {
    case 0: return "noise";
    case 1: return "partition";
    case 2: return "member-crash";
    case 3: return "sequencer-crash";
    default: return "?";
  }
}

/// Deterministic scenario choice: every (seed, method, r) triple maps to
/// one of the four scenarios, and a sweep over consecutive seeds hits all
/// of them for every protocol variant.
inline int pick_scenario(const PropertyParams& p) {
  std::uint64_t h = p.seed * 0x9E3779B97F4A7C15ULL;
  h ^= (static_cast<std::uint64_t>(p.method) << 7) ^
       (static_cast<std::uint64_t>(p.resilience) << 3);
  h *= 0xBF58476D1CE4E5B9ULL;
  return static_cast<int>((h >> 33) % 4);
}

inline std::string describe(const PropertyParams& p, int sc) {
  std::ostringstream os;
  os << "seed=" << p.seed << " method="
     << (p.method == Method::pb ? "pb"
                                : (p.method == Method::bb ? "bb" : "dynamic"))
     << " r=" << p.resilience << " batch_count=" << p.batch_count
     << " scenario=" << scenario_name(sc);
  return os.str();
}

inline PropertyOutcome run_property_case(const PropertyParams& p) {
  constexpr std::size_t kMembers = 4;
  const int sc = pick_scenario(p);

  GroupConfig cfg = sweep_config();
  cfg.resilience = p.resilience;
  cfg.method = p.method;
  cfg.batch_count = p.batch_count;

  // AMOEBA_DURABILITY=1 re-runs the whole sweep with every member on a
  // durable log in group_commit mode: the protocol obligations must hold
  // regardless of the logging mode, and the sanitizer CI jobs get the
  // log's append/fsync path under the same nemesis schedules.
  const char* dur_env = std::getenv("AMOEBA_DURABILITY");
  const bool durable_mode = dur_env != nullptr && dur_env[0] == '1';
  if (durable_mode) {
    cfg.durability = Durability::group_commit;
    cfg.fsync_interval = Duration::millis(10);
  }

  SimGroupHarness h(kMembers, cfg, sim::CostModel::mc68030_ether10(), p.seed);
  if (durable_mode) {
    for (std::size_t i = 0; i < kMembers; ++i) {
      h.process(i).enable_durability();
    }
  }

  PropertyOutcome out;
  out.scenario = sc;
  out.formed = h.form_group();
  if (!out.formed) {
    out.report = "group formation failed: " + describe(p, sc);
    return out;
  }

  // --- Nemesis schedule -----------------------------------------------------
  std::vector<NemesisEvent> schedule{noise_event(p.seed)};
  if (sc == 1) {
    NemesisEvent cut;
    cut.at = Duration::millis(60);
    cut.kind = NemesisEvent::Kind::partition;
    cut.islands = {{h.process(0).faults().station(),
                    h.process(1).faults().station(),
                    h.process(2).faults().station()},
                   {h.process(3).faults().station()}};
    NemesisEvent heal;
    heal.at = Duration::millis(250);
    heal.kind = NemesisEvent::Kind::heal;
    schedule.push_back(cut);
    schedule.push_back(heal);
  }
  schedule.push_back(calm_event(Duration::millis(sc <= 1 ? 400 : 200)));
  start_nemesis(h, schedule);
  const bool crash = sc == 2 || sc == 3;
  const std::size_t crash_victim = (sc == 2) ? 3u : 0u;
  const Time crash_at = h.engine().now() + Duration::millis(80);
  if (crash) schedule_crash(h, crash_victim, crash_at);

  // --- Phase A workload: chained sends from every member --------------------
  if (!run_send_phase(h, {0, 1, 2, 3}, (sc == 3) ? 2 : 4,
                      user_send_step(h, 0xA), Duration::seconds(60))) {
    out.report = "phase A stalled: " + describe(p, sc) + "\n" +
                 h.traces().dump_text(200);
    return out;
  }

  // --- Scenario 3: ResetGroup + a post-recovery send phase ------------------
  if (sc == 3) {
    const std::string err = probe_then_reset(h, 1, 0, [&h](auto done) {
      Buffer b(8);
      b[0] = 1;
      b[2] = 0xF;  // probe tag
      h.process(1).user_send(std::move(b), std::move(done));
    });
    if (!err.empty()) {
      out.reset_ok = false;
      out.report = err + ": " + describe(p, sc) + "\n" +
                   h.traces().dump_text(200);
      return out;
    }

    // Wait for every survivor to finish recovery, then phase B.
    const auto running = [&h](std::size_t i) {
      return h.process(i).member().state() == GroupMember::State::running;
    };
    h.run_until([&] { return running(1) && running(2) && running(3); },
                Duration::seconds(30));
    std::vector<std::size_t> senders;
    for (std::size_t i = 1; i < kMembers; ++i) {
      if (running(i)) senders.push_back(i);
    }
    if (!run_send_phase(h, senders, 2, user_send_step(h, 0xB),
                        Duration::seconds(60), running)) {
      out.report = "phase B stalled: " + describe(p, sc) + "\n" +
                   h.traces().dump_text(200);
      return out;
    }
  }

  // --- Quiesce, then judge --------------------------------------------------
  quiesce(h);

  check::OracleOptions opts;
  if (crash) cut_rings_at_crash(opts, h, crash_victim, crash_at);
  // After a sequencer crash the durability claim needs r >= 1 (with r = 0
  // a message can die with the sequencer).
  claim_durable_rings(opts, h,
                      crash ? std::vector<std::size_t>{crash_victim}
                            : std::vector<std::size_t>{},
                      [&](std::uint32_t) {
                        return sc == 3 && p.resilience < 1;
                      });
  out.verdict = h.check_conformance(opts);
  if (!out.verdict.ok()) {
    out.report = "oracle violation: " + describe(p, sc) + "\n" +
                 out.verdict.to_string() + h.traces().dump_text(400);
  }
  for (std::size_t i = 0; i < h.size(); ++i) {
    out.injected += h.process(i).faults().fault_stats().injected();
  }
  return out;
}

}  // namespace amoeba::group::prop
