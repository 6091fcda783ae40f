// The steps the seed-swept property runners share: the single-group sweep
// (property_harness.hpp), the sharded sweep (sharded_property_harness.hpp)
// and the restart sweep (property_restart.cpp). Each runner keeps its own
// scenario script and parameters and calls these in its own order.
#pragma once

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "common/chain.hpp"
#include "group/sim_harness.hpp"

namespace amoeba::group::prop {

using transport::NemesisEvent;

/// A sweep width from the environment (`name`), or `fallback` when unset
/// or not a positive number.
inline int env_count(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const int n = std::atoi(v);
  return n > 0 ? n : fallback;
}

/// The sweeps' protocol timers: short retries, so a case recovers from the
/// nemesis within a few hundred milliseconds of virtual time.
inline GroupConfig sweep_config() {
  GroupConfig cfg;
  cfg.send_retry = Duration::millis(30);
  cfg.nack_retry = Duration::millis(10);
  cfg.join_retry = Duration::millis(50);
  cfg.status_interval = Duration::millis(100);
  cfg.invite_interval = Duration::millis(50);
  return cfg;
}

/// Background noise from the start: drop / duplicate / corrupt / delay.
inline NemesisEvent noise_event(std::uint64_t seed) {
  NemesisEvent noisy;
  noisy.kind = NemesisEvent::Kind::set_plan;
  noisy.plan.drop = 0.05 + 0.03 * static_cast<double>(seed % 2);
  noisy.plan.duplicate = 0.02;
  noisy.plan.corrupt = 0.02;
  noisy.plan.delay = 0.03;
  return noisy;
}

/// Back to the default plan (no faults) at `at`.
inline NemesisEvent calm_event(Duration at) {
  NemesisEvent calm;
  calm.kind = NemesisEvent::Kind::set_plan;
  calm.at = at;
  return calm;
}

/// Run `schedule` on every station's fault device.
inline void start_nemesis(SimGroupHarness& h,
                          const std::vector<NemesisEvent>& schedule) {
  for (std::size_t i = 0; i < h.size(); ++i) {
    h.process(i).faults().set_schedule(schedule);
    h.process(i).faults().start_nemesis();
  }
}

/// Sever station `victim`'s NIC at `at`. The crash is scripted on the
/// engine clock, so it lands at an exact virtual time whatever the frame
/// activity.
inline void schedule_crash(SimGroupHarness& h, std::size_t victim, Time at) {
  h.engine().schedule_at(at, [&h, victim] {
    h.process(victim).faults().crash();
  });
}

/// Issues station i's k-th send of a phase; `done` runs on its completion.
using SendStep =
    std::function<void(std::size_t i, int k, GroupMember::StatusCb done)>;

/// Station i's k-th user-level send on a classic station: 8 bytes tagged
/// with (i, k, phase).
inline SendStep user_send_step(SimGroupHarness& h, std::uint8_t phase) {
  return [&h, phase](std::size_t i, int k, GroupMember::StatusCb done) {
    Buffer b(8);
    b[0] = static_cast<std::uint8_t>(i);
    b[1] = static_cast<std::uint8_t>(k);
    b[2] = phase;
    h.process(i).user_send(std::move(b), std::move(done));
  };
}

/// Chained sends: every station in `senders` issues `per_sender` sends, each
/// from the previous one's completion, whatever its status (crashed or
/// partitioned stations legitimately fail theirs; the oracle's validity
/// invariant separately pins every `ok` to a real delivery). The phase is
/// over once each sender has finished its chain or `waits_for(i)` is false.
/// Returns false if that does not happen within `deadline`.
inline bool run_send_phase(
    SimGroupHarness& h, const std::vector<std::size_t>& senders,
    int per_sender, SendStep send, Duration deadline,
    const std::function<bool(std::size_t)>& waits_for =
        [](std::size_t) { return true; }) {
  const auto done = std::make_shared<std::vector<int>>(h.size(), 0);
  const Chain<std::size_t, int> chain(
      [send = std::move(send), done, per_sender](
          const Chain<std::size_t, int>& next, std::size_t i, int k) {
        if (k >= per_sender) return;
        send(i, k, [done, next, i, k](Status) {
          ++(*done)[i];
          next(i, k + 1);
        });
      });
  for (const std::size_t i : senders) chain(i, 0);
  return h.run_until(
      [&] {
        for (const std::size_t i : senders) {
          if (waits_for(i) && (*done)[i] < per_sender) return false;
        }
        return true;
      },
      deadline);
}

/// Issues one probe send; `done` runs on its completion.
using ProbeSend = std::function<void(GroupMember::StatusCb done)>;

/// A member must notice a dead sequencer before it can reset: probe from
/// station i until its member of group g reports a fault, then run
/// ResetGroup there. Returns what went wrong, or "" on success.
inline std::string probe_then_reset(SimGroupHarness& h, std::size_t i,
                                    std::uint32_t g, const ProbeSend& probe) {
  const auto probing = std::make_shared<bool>(false);
  if (!h.run_until(
          [&] {
            if (!h.process(i).fault(g).has_value() && !*probing) {
              *probing = true;
              probe([probing](Status) { *probing = false; });
            }
            return h.process(i).fault(g).has_value();
          },
          Duration::seconds(60))) {
    return "fault never observed";
  }
  bool reset_done = false;
  Status reset_status = Status::failure;
  h.process(i).member(g).reset_group(2, [&](Status s, std::uint32_t) {
    reset_status = s;
    reset_done = true;
  });
  if (!h.run_until([&] { return reset_done; }, Duration::seconds(60))) {
    return "ResetGroup stalled";
  }
  if (reset_status != Status::ok) {
    return "ResetGroup failed (" + std::string(to_string(reset_status)) + ")";
  }
  return "";
}

/// Let retransmissions and status rounds settle before judging.
inline void quiesce(SimGroupHarness& h) {
  h.run_until([] { return false; }, Duration::millis(800));
}

/// The crash only severs the NIC: the victim keeps executing locally and
/// (as a partitioned sequencer) may expel the unreachable members and
/// complete sends against its solo view. A real fail-stop station's
/// post-crash actions are unobservable, so truncate every ring of the
/// victim at the crash instant; its pre-crash completions still bind the
/// survivors.
inline void cut_rings_at_crash(check::OracleOptions& opts, SimGroupHarness& h,
                               std::size_t victim, Time crash_at) {
  for (const std::string& label : h.ring_labels(victim)) {
    opts.ring_cutoffs.emplace_back(label, crash_at);
  }
}

/// Durability claims: every member still running, on a station outside
/// `crashed`, must hold every message delivered anywhere in its group,
/// unless `may_lose(g)` (a group whose sequencer crashed can lose messages
/// with r = 0). A crashed station's member may never learn its NIC died
/// (nothing left to send, so no timeout fires) and idle in `running`
/// forever, so the crashed stations are excluded explicitly.
inline void claim_durable_rings(
    check::OracleOptions& opts, SimGroupHarness& h,
    const std::vector<std::size_t>& crashed,
    const std::function<bool(std::uint32_t)>& may_lose) {
  for (std::size_t i = 0; i < h.size(); ++i) {
    bool was_crashed = false;
    for (const std::size_t v : crashed) was_crashed = was_crashed || v == i;
    if (was_crashed) continue;
    for (std::uint32_t g = 0; g < h.groups(); ++g) {
      if (h.process(i).member(g).state() == GroupMember::State::running &&
          !may_lose(g)) {
        opts.durable_rings.push_back(h.member_label(i, g));
      }
    }
  }
}

}  // namespace amoeba::group::prop
