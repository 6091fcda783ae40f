// Sharded key-value store with cross-shard transactions.
//
// Two shards partition the keyspace (Node::route — FNV-1a over the key);
// every station hosts a replica of both shards behind one multi-group
// Node. Deposits touch one account and ride the unmodified single-group
// protocol of the paper. Transfers touch two accounts; when the accounts
// live in different shards the Node upgrades the send to a genuine
// cross-shard atomic multicast (send_multi): both shards' sequencers
// agree on a final timestamp and every replica of both shards applies
// the transfer at a position consistent with its local total order —
// so debits and credits never reorder against other transfers and the
// bank's total balance is conserved everywhere.
//
//   $ ./sharded_kv
#include <array>
#include <cstdio>
#include <map>
#include <string>

#include "group/sim_harness.hpp"

using namespace amoeba;
using namespace amoeba::group;

namespace {

constexpr std::uint8_t kDeposit = 'D';
constexpr std::uint8_t kTransfer = 'T';

std::span<const std::uint8_t> key_bytes(const std::string& key) {
  return {reinterpret_cast<const std::uint8_t*>(key.data()), key.size()};
}

Buffer encode_deposit(const std::string& account, std::uint32_t amount) {
  BufWriter w;
  w.u8(kDeposit);
  w.str(account);
  w.u32(amount);
  return std::move(w).take();
}

Buffer encode_transfer(const std::string& from, const std::string& to,
                       std::uint32_t amount) {
  BufWriter w;
  w.u8(kTransfer);
  w.str(from);
  w.str(to);
  w.u32(amount);
  return std::move(w).take();
}

/// One replica's table for one shard. Applies only the halves of an
/// operation whose account this shard owns — a cross-shard transfer
/// delivers in both shards and each applies its own half.
struct ShardReplica {
  std::map<std::string, long> balances;

  void apply(const Node& node, std::uint32_t shard, BufView op) {
    BufReader r(op.span());
    const std::uint8_t kind = r.u8();
    if (kind == kDeposit) {
      const std::string account = r.str();
      const long amount = r.u32();
      if (r.ok() && node.route(key_bytes(account)) == shard) {
        balances[account] += amount;
      }
    } else if (kind == kTransfer) {
      const std::string from = r.str();
      const std::string to = r.str();
      const long amount = r.u32();
      if (!r.ok()) return;
      if (node.route(key_bytes(from)) == shard) balances[from] -= amount;
      if (node.route(key_bytes(to)) == shard) balances[to] += amount;
    }
  }

  long total() const {
    long t = 0;
    for (const auto& [account, balance] : balances) t += balance;
    return t;
  }
};

}  // namespace

int main() {
  constexpr std::size_t kStations = 3;
  constexpr std::uint32_t kShards = 2;

  GroupConfig cfg;
  cfg.resilience = 1;  // updates survive one crash once accepted
  SimGroupHarness h(kStations, kShards, cfg);
  h.set_tracing(false);  // application run, no oracle
  if (!h.form_group()) {
    std::fprintf(stderr, "group formation failed\n");
    return 1;
  }

  // Every station replicates both shards; apply in delivery order.
  std::array<std::array<ShardReplica, kShards>, kStations> replicas;
  for (std::size_t i = 0; i < kStations; ++i) {
    Node* node = &h.process(i).node();
    node->set_deliver([&, i, node](std::uint32_t shard, const GroupMessage& gm,
                                   std::uint64_t) {
      if (gm.kind != MessageKind::app && gm.kind != MessageKind::xshard) {
        return;  // membership traffic
      }
      replicas[i][shard].apply(*node, shard, gm.data);
    });
  }

  const std::string accounts[] = {"alice", "bob", "carol", "dave"};
  Node& n0 = h.process(0).node();

  int pending = 0;
  auto done = [&](Status s) {
    if (s != Status::ok) std::fprintf(stderr, "send failed\n");
    --pending;
  };

  // Seed every account with 100 via routed single-shard sends.
  for (const std::string& a : accounts) {
    ++pending;
    n0.send_to_shard(n0.route(key_bytes(a)), encode_deposit(a, 100), done);
  }
  h.run_until([&] { return pending == 0; }, Duration::seconds(30));

  // Transfers from different stations; cross-shard ones use send_multi.
  struct Xfer {
    std::size_t via;
    const char* from;
    const char* to;
    std::uint32_t amount;
  };
  const Xfer xfers[] = {
      {0, "alice", "bob", 30},  {1, "bob", "carol", 15},
      {2, "carol", "dave", 60}, {1, "dave", "alice", 5},
      {2, "alice", "carol", 10},
  };
  for (const Xfer& x : xfers) {
    Node& n = h.process(x.via).node();
    const std::uint32_t sf = n.route(key_bytes(x.from));
    const std::uint32_t st = n.route(key_bytes(x.to));
    ++pending;
    Buffer op = encode_transfer(x.from, x.to, x.amount);
    if (sf == st) {
      n.send_to_shard(sf, std::move(op), done);
    } else {
      n.send_multi((1u << sf) | (1u << st), std::move(op), done);
    }
    std::printf("transfer %-5s -> %-5s  %3u  (%s)\n", x.from, x.to, x.amount,
                sf == st ? "same shard" : "cross-shard atomic");
  }
  h.run_until([&] { return pending == 0; }, Duration::seconds(30));
  h.run_until([] { return false; }, Duration::millis(500));  // quiesce

  // Every station's replica of each shard must agree, and the bank-wide
  // total must be conserved: 4 accounts x 100, transfers net to zero.
  bool ok = true;
  long grand_total = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (std::size_t i = 1; i < kStations; ++i) {
      if (replicas[i][s].balances != replicas[0][s].balances) {
        std::fprintf(stderr, "replica divergence in shard %u\n", s);
        ok = false;
      }
    }
    grand_total += replicas[0][s].total();
    std::printf("shard %u:", s);
    for (const auto& [account, balance] : replicas[0][s].balances) {
      std::printf("  %s=%ld", account.c_str(), balance);
    }
    std::printf("\n");
  }
  std::printf("bank total: %ld (expected 400)\n", grand_total);
  if (grand_total != 400) ok = false;

  std::printf(ok ? "all replicas agree; total conserved\n"
                 : "FAILED\n");
  return ok ? 0 : 1;
}
