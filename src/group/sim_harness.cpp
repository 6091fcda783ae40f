#include "group/sim_harness.hpp"

#include "common/chain.hpp"

namespace amoeba::group {

SimProcess::SimProcess(sim::Node& node, flip::Address addr, GroupConfig cfg,
                       std::uint64_t fault_seed)
    : node_(node), addr_(addr), cfg_(cfg), exec_(node), dev_(node),
      faults_(dev_, exec_, fault_seed), flip_(exec_, faults_),
      ring_(std::make_unique<check::TraceRing>()), faults_seen_(1) {
  make_member();
}

SimProcess::SimProcess(sim::Node& node, std::uint32_t node_id,
                       flip::Address node_addr, Node::Config ncfg,
                       std::uint64_t fault_seed)
    : node_(node), addr_(node_addr), exec_(node), dev_(node),
      faults_(dev_, exec_, fault_seed), flip_(exec_, faults_),
      ring_(std::make_unique<check::TraceRing>()),
      gnode_(std::make_unique<Node>(flip_, exec_, node_addr, node_id, ncfg)) {
  gnode_->set_trace_ring(ring_.get());
  gnode_->set_deliver([this](std::uint32_t shard, const GroupMessage& gm,
                             std::uint64_t xid) {
    shard_deliveries_.push_back(ShardDelivery{
        .shard = shard, .xid = xid, .seq = gm.seq,
        .fp = check::fingerprint(gm.data)});
  });
}

void SimProcess::add_shard(std::uint32_t tag, flip::Address member_addr,
                           GroupConfig cfg) {
  while (shard_rings_.size() <= tag) {
    shard_rings_.push_back(std::make_unique<check::TraceRing>());
    faults_seen_.emplace_back();
  }
  GroupMember::Callbacks cbs;
  cbs.on_fault = [this, tag](Status s) { faults_seen_[tag] = s; };
  GroupMember& m =
      gnode_->add_shard(tag, member_addr, std::move(cfg), std::move(cbs));
  m.set_trace_ring(shard_rings_.at(tag).get());
}

void SimProcess::make_member() {
  member_ = std::make_unique<GroupMember>(
      flip_, exec_, addr_, cfg_,
      GroupMember::Callbacks{
          .on_message =
              [this](const GroupMessage& m) {
                // User level: the receiving thread wakes (context switch if
                // it was blocked in ReceiveFromGroup), the kernel copies the
                // message out (second copy of the paper's two receiver-side
                // copies), and the syscall returns. Modeled as a separate
                // CPU task so delivery timestamps land after U3, matching
                // the endpoint of the paper's Figure 2 breakdown.
                const auto& c = exec_.costs();
                Duration cost = c.user_deliver +
                                c.copy_time(m.data.size(), c.user_copies);
                // Waking the blocked receiving thread costs a full context
                // switch only when the CPU is otherwise idle; on a saturated
                // node the thread is runnable and resumes with the queued
                // work (this is why the paper's sequencer reaches 815 msg/s
                // rather than the naive interrupt-path bound).
                if (node_.cpu_free() <= exec_.now()) {
                  cost += c.ctx_switch;
                }
                GroupMessage copy = m;
                if (!keep_payloads_) copy.data.clear();
                exec_.post(cost, [this, copy = std::move(copy)]() mutable {
                  if (on_deliver_) on_deliver_(copy);
                  delivered_.push_back(std::move(copy));
                });
              },
          .on_view = [this](const ViewChange& v) { views_.push_back(v); },
          .on_fault = [this](Status s) { faults_seen_[0] = s; },
      });
  member_->set_trace_ring(ring_.get());
}

std::vector<std::pair<std::string, check::TraceRing*>>
SimProcess::trace_rings() {
  std::vector<std::pair<std::string, check::TraceRing*>> out{{"", ring_.get()}};
  for (std::size_t s = 0; s < shard_rings_.size(); ++s) {
    // Built with append: GCC 12 warns -Wrestrict (a false positive) on
    // "literal" + std::to_string(...).
    out.emplace_back(std::string(".s").append(std::to_string(s)),
                     shard_rings_[s].get());
  }
  return out;
}

void SimProcess::set_tracing(bool on) {
  check::TraceRing* ring = on ? ring_.get() : nullptr;
  if (gnode_) {
    gnode_->set_trace_ring(ring);
  } else {
    member_->set_trace_ring(ring);
  }
  for (std::uint32_t s = 0; s < shard_rings_.size(); ++s) {
    gnode_->shard(s)->set_trace_ring(on ? shard_rings_[s].get() : nullptr);
  }
}

void SimProcess::enable_durability() {
  if (!storage_) storage_ = std::make_unique<storage::MemStorage>();
  log_ = std::make_unique<DurableLog>(
      *storage_, DurableLogOptions{.segment_bytes = cfg_.log_segment_bytes});
  (void)log_->open();
  member_->set_durable_log(log_.get());
}

void SimProcess::crash_with_disk(
    const storage::MemStorage::CrashOptions& opts) {
  node_.crash();
  // Close the log first (its open handles pin removed files, like POSIX
  // fds), then lose what was never synced.
  member_->set_durable_log(nullptr);
  log_.reset();
  if (storage_) storage_->crash_unsynced(opts);
}

Status SimProcess::restart_from_disk() {
  member_.reset();  // the old life dies with the node
  node_.restart();
  ring_ = std::make_unique<check::TraceRing>();
  delivered_.clear();
  views_.clear();
  faults_seen_[0].reset();
  make_member();
  if (!storage_) return Status::invalid_argument;
  log_ = std::make_unique<DurableLog>(
      *storage_, DurableLogOptions{.segment_bytes = cfg_.log_segment_bytes});
  if (const Status s = log_->open(); s != Status::ok) return s;
  const Status s = member_->recover_from_log(log_.get());
  if (s != Status::ok) {
    // Disk held no usable view (e.g. crashed before the first sync):
    // the member starts over as a fresh joiner, but keeps logging.
    member_->set_durable_log(log_.get());
  }
  return s;
}

void SimProcess::user_send(Buffer data, GroupMember::StatusCb done) {
  exec_.post(exec_.costs().user_send,
             [this, data = std::move(data), done = std::move(done)]() mutable {
               member_->send_to_group(std::move(data), std::move(done));
             });
}

SimGroupHarness::SimGroupHarness(std::size_t n_processes, GroupConfig cfg,
                                 sim::CostModel model, std::uint64_t seed)
    : cfg_(cfg), world_(n_processes, model, seed),
      gaddrs_{flip::group_address(0x6702)}, next_addr_(1), seed_(seed) {
  for (std::size_t i = 0; i < n_processes; ++i) add_station(world_.node(i));
}

SimGroupHarness::SimGroupHarness(std::size_t n_processes,
                                 std::uint32_t n_shards, GroupConfig cfg,
                                 Node::Config ncfg, sim::CostModel model,
                                 std::uint64_t seed)
    : cfg_(cfg), ncfg_(ncfg), world_(n_processes, model, seed),
      next_addr_(0x5000), seed_(seed) {
  for (std::uint32_t s = 0; s < n_shards; ++s) {
    gaddrs_.push_back(flip::group_address(0x7100 + s));
  }
  for (std::size_t i = 0; i < n_processes; ++i) add_station(world_.node(i));
}

SimProcess& SimGroupHarness::add_station(sim::Node& node) {
  const std::size_t i = procs_.size();
  // Distinct fault stream per station, all derived from the one seed.
  const std::uint64_t fault_seed = seed_ ^ (0x9E3779B97F4A7C15ULL * (i + 1));
  if (ncfg_) {
    procs_.push_back(std::make_unique<SimProcess>(
        node, static_cast<std::uint32_t>(i + 1),
        flip::process_address(next_addr_++), *ncfg_, fault_seed));
    for (std::uint32_t s = 0; s < groups(); ++s) {
      procs_.back()->add_shard(s, flip::process_address(next_addr_++), cfg_);
    }
  } else {
    procs_.push_back(std::make_unique<SimProcess>(
        node, flip::process_address(next_addr_++), cfg_, fault_seed));
  }
  labels_.push_back(std::string(ncfg_ ? "n" : "m").append(std::to_string(i)));
  restart_counts_.push_back(0);
  if (tracing_) {
    attach_rings(i);
  } else {
    procs_.back()->set_tracing(false);
  }
  return *procs_.back();
}

void SimGroupHarness::attach_rings(std::size_t i) {
  for (const auto& [suffix, ring] : procs_[i]->trace_rings()) {
    collector_.attach(labels_[i] + suffix, ring);
  }
}

std::string SimGroupHarness::member_label(std::size_t i,
                                          std::uint32_t g) const {
  if (!ncfg_) return labels_.at(i);
  return labels_.at(i) + ".s" + std::to_string(g);
}

std::vector<std::string> SimGroupHarness::ring_labels(std::size_t i) {
  std::vector<std::string> out;
  for (const auto& [suffix, ring] : procs_.at(i)->trace_rings()) {
    out.push_back(labels_[i] + suffix);
  }
  return out;
}

void SimGroupHarness::crash_process(
    std::size_t i, const storage::MemStorage::CrashOptions& opts) {
  procs_.at(i)->crash_with_disk(opts);
}

check::OracleOptions::RestartPair SimGroupHarness::restart_process(
    std::size_t i, Status* status) {
  // Preserve the crashed life's events under its old label before its
  // ring goes away, then collect the new life under a fresh one — the
  // oracle holds post against pre via restart_pairs.
  if (tracing_) collector_.detach(labels_.at(i));
  check::OracleOptions::RestartPair pair;
  pair.pre = labels_.at(i);
  labels_.at(i) = std::string("m")
                      .append(std::to_string(i))
                      .append("r")
                      .append(std::to_string(++restart_counts_.at(i)));
  pair.post = labels_.at(i);
  const Status s = procs_.at(i)->restart_from_disk();
  if (status != nullptr) *status = s;
  if (tracing_) {
    attach_rings(i);
  } else {
    procs_.at(i)->set_tracing(false);
  }
  return pair;
}

bool SimGroupHarness::form_group() {
  bool ok = true;
  std::size_t formed = 0;
  const auto count = [&ok, &formed](Status s) {
    ok = ok && s == Status::ok;
    ++formed;
  };
  for (std::uint32_t g = 0; g < groups(); ++g) {
    const std::size_t creator = g % procs_.size();
    procs_[creator]->member(g).create_group(gaddrs_[g], count);
    // Join one at a time: each joiner starts once the previous one is in,
    // so member ids are deterministic (the creator is id 0, the others
    // follow in station order). The pending join owns the chain.
    const Chain<std::size_t> join_next(
        [this, g, creator, &count](const Chain<std::size_t>& next,
                                   std::size_t i) {
          if (i == creator) ++i;
          if (i >= procs_.size()) return;
          procs_[i]->member(g).join_group(gaddrs_[g],
                                          [&count, next, i](Status s) {
                                            count(s);
                                            next(i + 1);
                                          });
        });
    join_next(0);
  }
  const std::size_t want = procs_.size() * groups();
  run_until([&] { return formed == want; }, Duration::seconds(60));
  return ok && formed == want;
}

bool SimGroupHarness::run_until(const std::function<bool()>& pred,
                                Duration deadline) {
  const Time limit = engine().now() + deadline;
  // Single-step so the clock stops at the event that satisfied the
  // predicate (a chunked dispatch would race past far-future timers and
  // wreck any wall-of-virtual-time measurement the caller makes).
  while (!pred()) {
    if (engine().now() >= limit || engine().pending() == 0) return pred();
    engine().run_steps(1);
    if (tracing_) collector_.drain();
  }
  return true;
}

check::Verdict SimGroupHarness::check_conformance(check::OracleOptions opts) {
  opts.first_seq = cfg_.first_seq;
  collector_.drain();
  return check::ConformanceOracle::check(collector_, opts);
}

void SimGroupHarness::set_tracing(bool on) {
  if (on == tracing_) return;
  tracing_ = on;
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    procs_[i]->set_tracing(on);
    if (on) attach_rings(i);
  }
  if (!on) {
    collector_.detach_all();
    collector_.clear();
  }
}

}  // namespace amoeba::group
