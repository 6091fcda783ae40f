#include "group/sharded_harness.hpp"

namespace amoeba::group {

ShardedProcess::ShardedProcess(sim::Node& node, std::uint32_t node_id,
                               flip::Address node_addr, Node::Config ncfg,
                               std::uint64_t fault_seed)
    : node_(node), exec_(node), dev_(node), faults_(dev_, exec_, fault_seed),
      flip_(exec_, faults_),
      node_ring_(std::make_unique<check::TraceRing>()) {
  gnode_ = std::make_unique<Node>(flip_, exec_, node_addr, node_id, ncfg);
  gnode_->set_trace_ring(node_ring_.get());
  gnode_->set_deliver([this](std::uint32_t shard, const GroupMessage& gm,
                             std::uint64_t xid) {
    if (!keep_deliveries_) return;
    Delivery d;
    d.shard = shard;
    d.xid = xid;
    d.seq = gm.seq;
    d.fp = check::fingerprint(gm.data);
    delivered_.push_back(d);
  });
}

void ShardedProcess::add_shard(std::uint32_t tag, flip::Address member_addr,
                               GroupConfig cfg) {
  while (shard_rings_.size() <= tag) {
    shard_rings_.push_back(std::make_unique<check::TraceRing>());
  }
  GroupMember::Callbacks cbs;
  cbs.on_fault = [this, tag](Status s) { shard_faults_[tag] = s; };
  GroupMember& m =
      gnode_->add_shard(tag, member_addr, std::move(cfg), std::move(cbs));
  m.set_trace_ring(shard_rings_.at(tag).get());
}

ShardedHarness::ShardedHarness(std::size_t n_processes, std::uint32_t n_shards,
                               GroupConfig cfg, Node::Config ncfg,
                               sim::CostModel model, std::uint64_t seed)
    : cfg_(cfg), n_shards_(n_shards), world_(n_processes, model, seed),
      seed_(seed) {
  for (std::size_t i = 0; i < n_processes; ++i) {
    procs_.push_back(std::make_unique<ShardedProcess>(
        world_.node(i), static_cast<std::uint32_t>(i + 1),
        flip::process_address(next_addr_++), ncfg,
        seed_ ^ (0x9E3779B97F4A7C15ULL * (i + 1))));
    // Built with append: GCC 12 warns -Wrestrict (a false positive) on
    // "literal" + std::to_string(...).
    node_labels_.push_back(std::string("n").append(std::to_string(i)));
    collector_.attach(node_labels_.back(), &procs_.back()->node_ring());
    for (std::uint32_t s = 0; s < n_shards_; ++s) {
      procs_.back()->add_shard(s, flip::process_address(next_addr_++), cfg_);
      collector_.attach(shard_label(i, s), &procs_.back()->shard_ring(s));
    }
  }
}

flip::Address ShardedHarness::shard_addr(std::uint32_t s) const {
  return flip::group_address(0x7100 + s);
}

bool ShardedHarness::form() {
  bool ok = true;
  std::size_t formed = 0;
  const std::size_t want = procs_.size() * n_shards_;
  for (std::uint32_t s = 0; s < n_shards_; ++s) {
    const std::size_t creator = s % procs_.size();
    procs_[creator]->node().shard(s)->create_group(shard_addr(s),
                                                   [&](Status st) {
                                                     ok = ok && st == Status::ok;
                                                     ++formed;
                                                   });
    // Join the rest sequentially (per shard) for deterministic member ids:
    // within shard s, the creator is id 0 and the others join in process
    // order. The pending join's callback owns the chain and the chain sees
    // itself weakly, so it is freed once no join is pending.
    auto join_next = std::make_shared<std::function<void(std::size_t)>>();
    *join_next = [this, s, creator, self = std::weak_ptr(join_next), &ok,
                  &formed](std::size_t i) {
      if (i >= procs_.size()) return;
      if (i == creator) {
        (*self.lock())(i + 1);
        return;
      }
      procs_[i]->node().shard(s)->join_group(
          shard_addr(s),
          [i, next = self.lock(), &ok, &formed](Status st) {
            ok = ok && st == Status::ok;
            ++formed;
            (*next)(i + 1);
          });
    };
    (*join_next)(0);
  }
  run_until([&] { return formed == want; }, Duration::seconds(60));
  return ok && formed == want;
}

bool ShardedHarness::run_until(const std::function<bool()>& pred,
                               Duration deadline) {
  const Time limit = engine().now() + deadline;
  while (!pred()) {
    if (engine().now() >= limit || engine().pending() == 0) return pred();
    engine().run_steps(1);
    if (tracing_) collector_.drain();
  }
  return true;
}

check::Verdict ShardedHarness::check_conformance(check::OracleOptions opts) {
  opts.first_seq = cfg_.first_seq;
  collector_.drain();
  return check::ConformanceOracle::check(collector_, opts);
}

void ShardedHarness::set_tracing(bool on) {
  if (on == tracing_) return;
  tracing_ = on;
  if (on) {
    for (std::size_t i = 0; i < procs_.size(); ++i) {
      procs_[i]->node().set_trace_ring(&procs_[i]->node_ring());
      collector_.attach(node_labels_[i], &procs_[i]->node_ring());
      for (std::uint32_t s = 0; s < n_shards_; ++s) {
        procs_[i]->node().shard(s)->set_trace_ring(&procs_[i]->shard_ring(s));
        collector_.attach(shard_label(i, s), &procs_[i]->shard_ring(s));
      }
    }
  } else {
    for (auto& p : procs_) {
      p->node().set_trace_ring(nullptr);
      for (std::uint32_t s = 0; s < n_shards_; ++s) {
        p->node().shard(s)->set_trace_ring(nullptr);
      }
    }
    collector_.detach_all();
    collector_.clear();
  }
}

}  // namespace amoeba::group
