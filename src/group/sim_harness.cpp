#include "group/sim_harness.hpp"

namespace amoeba::group {

SimProcess::SimProcess(sim::Node& node, flip::Address addr, GroupConfig cfg,
                       std::uint64_t fault_seed)
    : node_(node), addr_(addr), cfg_(cfg),
      trace_ring_(std::make_unique<check::TraceRing>()), exec_(node),
      dev_(node), faults_(dev_, exec_, fault_seed), flip_(exec_, faults_) {
  make_member();
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
                const Time now = exec_.now();
                if (node_.cpu_free() <= now) {
                  cost += c.ctx_switch;
                }
                last_delivery_ = now;
                GroupMessage copy = m;
                if (!keep_payloads_) copy.data.clear();
                exec_.post(cost, [this, copy = std::move(copy)]() mutable {
                  if (on_deliver_) on_deliver_(copy);
                  delivered_.push_back(std::move(copy));
                });
              },
          .on_view = [this](const ViewChange& v) { views_.push_back(v); },
          .on_fault = [this](Status s) { fault_ = s; },
      });
  member_->set_trace_ring(trace_ring_.get());
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
  trace_ring_ = std::make_unique<check::TraceRing>();
  delivered_.clear();
  views_.clear();
  fault_.reset();
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
      gaddr_(flip::group_address(0x6702)), seed_(seed) {
  for (std::size_t i = 0; i < n_processes; ++i) {
    // Distinct fault stream per station, all derived from the one seed.
    procs_.push_back(std::make_unique<SimProcess>(
        world_.node(i), flip::process_address(next_addr_++), cfg_,
        seed_ ^ (0x9E3779B97F4A7C15ULL * (i + 1))));
    // Labels are built with append: GCC 12 warns -Wrestrict (a false
    // positive) on "literal" + std::to_string(...).
    labels_.push_back(std::string("m").append(std::to_string(i)));
    restart_counts_.push_back(0);
    collector_.attach(labels_.back(), &procs_.back()->trace_ring());
  }
}

SimProcess& SimGroupHarness::add_process() {
  sim::Node& node = world_.add_node();
  procs_.push_back(std::make_unique<SimProcess>(
      node, flip::process_address(next_addr_++), cfg_,
      seed_ ^ (0x9E3779B97F4A7C15ULL * (procs_.size() + 1))));
  labels_.push_back(
      std::string("m").append(std::to_string(procs_.size() - 1)));
  restart_counts_.push_back(0);
  if (tracing_) {
    collector_.attach(labels_.back(), &procs_.back()->trace_ring());
  } else {
    procs_.back()->member().set_trace_ring(nullptr);
  }
  return *procs_.back();
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
    collector_.attach(labels_.at(i), &procs_.at(i)->trace_ring());
  } else {
    procs_.at(i)->member().set_trace_ring(nullptr);
  }
  return pair;
}

bool SimGroupHarness::form_group() {
  bool ok = true;
  std::size_t formed = 0;
  procs_[0]->member().create_group(gaddr_, [&](Status s) {
    ok = ok && s == Status::ok;
    ++formed;
  });
  // Join sequentially: each joiner starts once the previous one is in, so
  // member ids are deterministic (process i gets id i).
  std::function<void(std::size_t)> join_next = [&](std::size_t i) {
    if (i >= procs_.size()) return;
    procs_[i]->member().join_group(gaddr_, [&, i](Status s) {
      ok = ok && s == Status::ok;
      ++formed;
      join_next(i + 1);
    });
  };
  join_next(1);
  run_until([&] { return formed == procs_.size(); }, Duration::seconds(30));
  return ok && formed == procs_.size();
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
  if (on) {
    for (std::size_t i = 0; i < procs_.size(); ++i) {
      procs_[i]->member().set_trace_ring(&procs_[i]->trace_ring());
      collector_.attach(labels_[i], &procs_[i]->trace_ring());
    }
  } else {
    for (auto& p : procs_) p->member().set_trace_ring(nullptr);
    collector_.detach_all();
    collector_.clear();
  }
}

}  // namespace amoeba::group
