// Multi-network operation: the paper measured the single-LAN case but
// notes "the protocols also work for network configurations in which
// members are located on different networks; FLIP will ensure that the
// messages are routed appropriately" (Section 4). This bench quantifies
// what that routing costs: the delay of a broadcast when the group spans
// two Ethernets joined by a FLIP router, against the single-wire baseline.
#include "bench_common.hpp"
#include "transport/sim_runtime.hpp"

namespace {

using namespace amoeba;

/// Group of `n` members: `remote` of them live on a second Ethernet
/// behind a FLIP router; the sender and sequencer stay on net A.
double spanning_delay_us(std::size_t n, std::size_t remote, int iters) {
  sim::CostModel model = sim::CostModel::mc68030_ether10();
  sim::Engine engine;
  sim::EthernetSegment net_a(engine, model, 1);
  sim::EthernetSegment net_b(engine, model, 2);

  std::vector<std::unique_ptr<sim::Node>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    sim::EthernetSegment& seg = i >= n - remote ? net_b : net_a;
    nodes.push_back(std::make_unique<sim::Node>(
        engine, seg, model, static_cast<NodeId>(i)));
  }
  auto router_node =
      std::make_unique<sim::Node>(engine, net_a, model, NodeId{99});
  const std::size_t rport = router_node->add_port(net_b);
  transport::SimExecutor rexec(*router_node);
  transport::SimDevice rdev_a(*router_node, 0), rdev_b(*router_node, rport);
  flip::FlipStack router(rexec, rdev_a);
  router.add_device(rdev_b);
  router.set_forwarding(true);

  group::GroupConfig cfg;
  std::vector<std::unique_ptr<group::SimProcess>> procs;
  for (std::size_t i = 0; i < n; ++i) {
    procs.push_back(std::make_unique<group::SimProcess>(
        *nodes[i], flip::process_address(i + 1), cfg));
  }
  const flip::Address gaddr = flip::group_address(0x1111);
  std::size_t formed = 0;
  procs[0]->member().create_group(gaddr, [&](Status s) {
    if (s == Status::ok) ++formed;
  });
  const Chain<std::size_t> join_next(
      [&](const Chain<std::size_t>& next, std::size_t i) {
        if (i >= procs.size()) return;
        procs[i]->member().join_group(gaddr, [&, i, next](Status s) {
          if (s == Status::ok) ++formed;
          next(i + 1);
        });
      });
  join_next(1);
  while (formed < n && engine.pending() > 0 &&
         engine.now() < Time{} + Duration::seconds(60)) {
    engine.run_steps(64);
  }
  if (formed < n) return -1;

  // Delay measured at the sender (net A), but completion of the FULL
  // group requires the farthest member: report the time until the LAST
  // member's user-level delivery.
  Histogram hist;
  int done = 0;
  Time start{};
  std::size_t delivered_this_round = 0;
const auto send_one = [&] {
    if (done >= iters) return;
    start = engine.now();
    delivered_this_round = 0;
    procs[1]->user_send(Buffer{}, [](Status) {});
  };
  for (std::size_t i = 0; i < n; ++i) {
    procs[i]->set_on_deliver([&](const group::GroupMessage& m) {
      if (m.kind != group::MessageKind::app) return;
      if (++delivered_this_round == n) {
        hist.add(engine.now() - start);
        ++done;
        send_one();
      }
    });
  }
  send_one();
  const Time deadline = engine.now() + Duration::seconds(300);
  while (done < iters && engine.now() < deadline && engine.pending() > 0) {
    engine.run_steps(64);
  }
  return hist.mean();
}

}  // namespace

int main() {
  using namespace amoeba::bench;

  print_header("Group communication across routed networks",
               "Section 4's multi-network claim, quantified");

  print_series_header({"members", "remote", "delay (ms)", "extra vs 1 LAN"});
  for (const std::size_t n : {std::size_t{4}, std::size_t{8}, std::size_t{16}}) {
    const double base = spanning_delay_us(n, 0, 150);
    for (const std::size_t remote : {std::size_t{0}, n / 2}) {
      const double us = remote == 0 ? base : spanning_delay_us(n, remote, 150);
      print_row({fmt("%zu", n), fmt("%zu", remote), fmt("%.2f", us / 1000.0),
                 remote == 0 ? "-" : fmt("+%.2f ms", (us - base) / 1000.0)});
    }
  }
  std::printf(
      "\nThe spanning case pays one store-and-forward hop at the FLIP\n"
      "router (receive + route + retransmit, plus the second wire): the\n"
      "protocol itself is unchanged, exactly as the paper claims.\n");
  return 0;
}
