// Simulation harness: Amoeba processes on the simulated testbed.
//
// Every station is one simulated node with its own executor, NIC, fault
// interposer and FLIP stack. A station hosts either
//
//   - one plain GroupMember: the classic group the paper measures. The
//     harness also models its user level (the blocking SendToGroup /
//     ReceiveFromGroup pair and its thread context switches), so
//     experiments charge the same per-layer costs the paper's Table 3
//     reports; or
//   - a multi-group Node with a member in every one of S shards, plus the
//     Node's cross-shard coordination endpoint.
//
// The classic group is not a 1-shard Node: a Node marks its members
// cross-shard, which arms a quarantine on every sequencer change, and it
// registers a FLIP endpoint of its own, so recovery would run differently.
//
// Group g is created by station g mod P and the other stations join in
// station order, so member ids are deterministic and a sharded run spreads
// its sequencer roles across the stations.
//
// Tracing: every member and Node gets its own ring. A classic station's
// ring is collected as "m<i>" ("m<i>r<k>" after its k-th restart); a Node
// station's own ring (its xsend admissions and completions) as "n<i>" and
// its shard s member's as "n<i>.s<s>".
//
// Used by the test suite, every simulator bench, and the simulator
// examples.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/collector.hpp"
#include "check/oracle.hpp"
#include "flip/stack.hpp"
#include "group/config.hpp"
#include "group/durable_log.hpp"
#include "group/member.hpp"
#include "group/node.hpp"
#include "sim/world.hpp"
#include "storage/mem_storage.hpp"
#include "transport/fault.hpp"
#include "transport/sim_runtime.hpp"

namespace amoeba::group {

/// One simulated station: node + stack + a member or a multi-group Node.
class SimProcess {
 public:
  /// A classic station: one plain GroupMember at `addr`.
  SimProcess(sim::Node& node, flip::Address addr, GroupConfig cfg,
             std::uint64_t fault_seed = 1);
  /// A Node station: a multi-group Node at `node_addr`, given one member
  /// per shard by add_shard().
  SimProcess(sim::Node& node, std::uint32_t node_id, flip::Address node_addr,
             Node::Config ncfg, std::uint64_t fault_seed);

  transport::SimExecutor& exec() { return exec_; }
  flip::FlipStack& flip() { return flip_; }
  /// The fault interposer between the FLIP stack and the simulated NIC.
  /// Inactive (single-branch passthrough) until given a plan or schedule.
  transport::FaultDevice& faults() { return faults_; }

  /// The member of group `g`: the plain member of a classic station, or
  /// shard g's member of a Node station.
  GroupMember& member(std::uint32_t g = 0) {
    return gnode_ ? *gnode_->shard(g) : *member_;
  }
  /// The hosting Node (Node stations only).
  Node& node() { return *gnode_; }
  /// Host shard `tag` on this Node station. `member_addr` must be unique.
  void add_shard(std::uint32_t tag, flip::Address member_addr,
                 GroupConfig cfg);

  /// Last on_fault status of group g's member here (empty: none).
  std::optional<Status> fault(std::uint32_t g = 0) const {
    return g < faults_seen_.size() ? faults_seen_[g] : std::nullopt;
  }

  /// The station's own ring: the classic member's, or the Node's. A
  /// restart swaps in a fresh ring; the old one's events live on in the
  /// harness collector.
  check::TraceRing& trace_ring() { return *ring_; }
  /// Every ring here with its collector-label suffix: "" for trace_ring(),
  /// ".s<s>" for shard s's member.
  std::vector<std::pair<std::string, check::TraceRing*>> trace_rings();
  /// Point the member(s) and Node at their rings, or detach them all.
  void set_tracing(bool on);

  // --- Classic stations ---------------------------------------------------

  /// Give this process a durable log over its own (crash-surviving)
  /// in-memory storage and attach it to the member. Must be paired with a
  /// GroupConfig whose `durability` is not `off` for the member to use it.
  void enable_durability();
  storage::MemStorage* storage() { return storage_.get(); }
  DurableLog* durable_log() { return log_.get(); }

  /// Crash-with-disk: the node fail-stops and the storage loses whatever
  /// was never fsynced (plus an optional torn tail of the last-synced
  /// segment). The member object dies with the node; the storage survives.
  void crash_with_disk(const storage::MemStorage::CrashOptions& opts);
  void crash_with_disk() { crash_with_disk({}); }

  /// Power the node back on, re-open the durable log over the surviving
  /// storage, and rebuild the member from it (GroupMember::recover_from_log
  /// — identity, view epoch and delivered-seq come from disk). On ok the
  /// member is State::failed under its old identity; the caller then either
  /// lets ResetGroup pick it up or calls member().rejoin_group(). Clears
  /// delivered()/views() — they belong to the previous life.
  Status restart_from_disk();

  /// User-level SendToGroup: charges the syscall cost (U1), then runs the
  /// protocol send; `done` fires when the send completes.
  void user_send(Buffer data, GroupMember::StatusCb done);

  /// All messages delivered to this process, in order.
  const std::vector<GroupMessage>& delivered() const { return delivered_; }
  std::uint64_t delivered_count() const { return delivered_.size(); }
  /// Retain only per-message counters, not payloads (long throughput runs).
  void set_keep_payloads(bool keep) { keep_payloads_ = keep; }

  /// Views observed (create/join/leave/expel/recovery).
  const std::vector<ViewChange>& views() const { return views_; }

  /// Hook invoked (in executor context) after each user-level delivery.
  void set_on_deliver(std::function<void(const GroupMessage&)> fn) {
    on_deliver_ = std::move(fn);
  }

  // --- Node stations ------------------------------------------------------

  /// One up-delivery recorded by the Node (cross-shard deliveries carry
  /// their xid; single-shard ones have xid 0).
  struct ShardDelivery {
    std::uint32_t shard{0};
    std::uint64_t xid{0};
    SeqNum seq{0};
    std::uint64_t fp{0};  // payload fingerprint
  };
  const std::vector<ShardDelivery>& shard_deliveries() const {
    return shard_deliveries_;
  }

 private:
  void make_member();

  sim::Node& node_;
  flip::Address addr_;
  GroupConfig cfg_;
  transport::SimExecutor exec_;
  transport::SimDevice dev_;
  transport::FaultDevice faults_;
  flip::FlipStack flip_;
  std::unique_ptr<check::TraceRing> ring_;
  std::vector<std::unique_ptr<check::TraceRing>> shard_rings_;  // by tag
  std::vector<std::optional<Status>> faults_seen_;             // by group
  std::unique_ptr<Node> gnode_;

  std::unique_ptr<storage::MemStorage> storage_;
  std::unique_ptr<DurableLog> log_;
  std::unique_ptr<GroupMember> member_;
  std::vector<GroupMessage> delivered_;
  std::vector<ViewChange> views_;
  std::function<void(const GroupMessage&)> on_deliver_;
  bool keep_payloads_{true};

  std::vector<ShardDelivery> shard_deliveries_;
};

/// A whole experiment: P stations on one Ethernet, hosting one classic
/// group or S shards.
class SimGroupHarness {
 public:
  /// One classic group across `n_processes` plain members.
  SimGroupHarness(std::size_t n_processes, GroupConfig cfg,
                  sim::CostModel model = sim::CostModel::mc68030_ether10(),
                  std::uint64_t seed = 1);
  /// `n_shards` groups: every station hosts a Node with a member in each.
  SimGroupHarness(std::size_t n_processes, std::uint32_t n_shards,
                  GroupConfig cfg, Node::Config ncfg = {},
                  sim::CostModel model = sim::CostModel::mc68030_ether10(),
                  std::uint64_t seed = 1);

  /// Create every group (group g by station g mod P) and join the other
  /// stations in station order. Runs the engine until every group is fully
  /// formed. Returns false if formation failed.
  bool form_group();

  sim::World& world() { return world_; }
  sim::Engine& engine() { return world_.engine(); }
  SimProcess& process(std::size_t i) { return *procs_.at(i); }
  std::size_t size() const { return procs_.size(); }
  /// Number of groups: 1 for the classic group, S for S shards.
  std::uint32_t groups() const {
    return static_cast<std::uint32_t>(gaddrs_.size());
  }
  flip::Address group_addr(std::uint32_t g = 0) const { return gaddrs_.at(g); }
  /// Mask with every group's bit set (Node::send_multi).
  std::uint32_t all_mask() const { return (1u << groups()) - 1; }

  /// Add another station (e.g. a late joiner) on a fresh node.
  SimProcess& add_process() { return add_station(world_.add_node()); }

  /// Current collector label of station i ("m0" for its first life,
  /// "m0r1", "m0r2", ... after restarts; "n0" for a Node station).
  const std::string& label(std::size_t i) const { return labels_.at(i); }
  /// Collector label of station i's member of group g.
  std::string member_label(std::size_t i, std::uint32_t g = 0) const;
  /// Collector labels of every ring on station i.
  std::vector<std::string> ring_labels(std::size_t i);

  /// Crash process i with its disk (see SimProcess::crash_with_disk).
  void crash_process(std::size_t i,
                     const storage::MemStorage::CrashOptions& opts = {});

  /// Restart process i from its surviving disk. Handles the trace-ring
  /// bookkeeping: the crashed life's ring is final-drained and detached,
  /// the new life collects under the next restart label. Returns the
  /// (pre, post) label pair for OracleOptions::restart_pairs; `status`
  /// (when non-null) receives GroupMember::recover_from_log's result.
  check::OracleOptions::RestartPair restart_process(std::size_t i,
                                                    Status* status = nullptr);

  /// Run until `pred()` or until `deadline` of simulated time passes.
  /// Returns whether the predicate became true.
  bool run_until(const std::function<bool()>& pred, Duration deadline);

  /// The collected structured event history of the run so far (rings are
  /// drained on every run_until step).
  check::TraceCollector& traces() { return collector_; }

  /// Run the ConformanceOracle over everything traced so far. first_seq is
  /// filled from the harness config; other options are the caller's.
  check::Verdict check_conformance(check::OracleOptions opts = {});

  /// Tracing is on by default; heavy benches can switch it off to keep the
  /// rings from churning (already-collected events are discarded too).
  void set_tracing(bool on);

 private:
  SimProcess& add_station(sim::Node& node);
  void attach_rings(std::size_t i);

  GroupConfig cfg_;
  std::optional<Node::Config> ncfg_;  // set: stations host Nodes
  sim::World world_;
  std::vector<flip::Address> gaddrs_;
  std::vector<std::unique_ptr<SimProcess>> procs_;
  std::vector<std::string> labels_;
  std::vector<int> restart_counts_;
  check::TraceCollector collector_;
  bool tracing_{true};
  std::uint64_t next_addr_;
  std::uint64_t seed_;
};

}  // namespace amoeba::group
