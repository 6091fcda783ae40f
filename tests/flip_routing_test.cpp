// Multi-network FLIP: routing between Ethernet segments through a FLIP
// router ("the protocols also work for network configurations in which
// members are located on different networks; FLIP will ensure that the
// messages are routed appropriately", Section 4).
#include <gtest/gtest.h>

#include "common/chain.hpp"
#include "flip/stack.hpp"
#include "group/sim_harness.hpp"
#include "sim/node.hpp"
#include "transport/sim_runtime.hpp"

namespace amoeba::flip {
namespace {

/// Two Ethernets bridged by one FLIP router; hosts a0/a1 on net A, b0 on
/// net B. The router has a NIC on each and forwards.
struct Internet : ::testing::Test {
  sim::CostModel model = sim::CostModel::mc68030_ether10();
  sim::Engine engine;
  sim::EthernetSegment net_a{engine, model, 1};
  sim::EthernetSegment net_b{engine, model, 2};

  sim::Node a0{engine, net_a, model, 0};
  sim::Node a1{engine, net_a, model, 1};
  sim::Node b0{engine, net_b, model, 2};
  sim::Node rtr{engine, net_a, model, 3};
  std::size_t rtr_port_b = rtr.add_port(net_b);

  transport::SimExecutor xa0{a0}, xa1{a1}, xb0{b0}, xr{rtr};
  transport::SimDevice da0{a0}, da1{a1}, db0{b0};
  transport::SimDevice dr_a{rtr, 0}, dr_b{rtr, rtr_port_b};

  FlipStack sa0{xa0, da0}, sa1{xa1, da1}, sb0{xb0, db0};
  FlipStack router{xr, dr_a};

  const Address pa0 = process_address(10);
  const Address pa1 = process_address(11);
  const Address pb0 = process_address(20);

  std::vector<Buffer> got_a0, got_a1, got_b0;

  void SetUp() override {
    router.add_device(dr_b);
    router.set_forwarding(true);
    sa0.register_endpoint(pa0, save(&got_a0));
    sa1.register_endpoint(pa1, save(&got_a1));
    sb0.register_endpoint(pb0, save(&got_b0));
  }

  FlipStack::Handler save(std::vector<Buffer>* out) {
    return [out](Address, Address, BufView msg) {
      out->push_back(Buffer(msg.begin(), msg.end()));
    };
  }

  void run(Duration d = Duration::seconds(5)) {
    engine.run_until(engine.now() + d);
  }
};

TEST_F(Internet, UnicastCrossesTheRouter) {
  EXPECT_EQ(sa0.send(pb0, pa0, make_pattern_buffer(100)), Status::ok);
  run();
  ASSERT_EQ(got_b0.size(), 1u);
  EXPECT_TRUE(check_pattern_buffer(got_b0[0]));
  EXPECT_GE(router.stats().packets_forwarded, 1u);
  // The sender's route points at the next hop (the router), not the host.
  const auto rt = sa0.route(pb0);
  ASSERT_TRUE(rt.has_value());
  EXPECT_EQ(rt->station, rtr.nic(0).station());
}

TEST_F(Internet, ReplyComesBackThroughTheRouter) {
  sa0.send(pb0, pa0, make_pattern_buffer(10));
  run();
  ASSERT_EQ(got_b0.size(), 1u);
  // b0 answers: its locate is answered by the router from its cache (it
  // learned pa0 when forwarding), or by re-flooding; either way it works.
  sb0.send(pa0, pb0, make_pattern_buffer(20));
  run();
  ASSERT_EQ(got_a0.size(), 1u);
  EXPECT_EQ(got_a0[0].size(), 20u);
}

TEST_F(Internet, SameSegmentTrafficDoesNotDetour) {
  sa0.send(pa1, pa0, make_pattern_buffer(30));
  run();
  ASSERT_EQ(got_a1.size(), 1u);
  const auto rt = sa0.route(pa1);
  ASSERT_TRUE(rt.has_value());
  EXPECT_EQ(rt->station, a1.nic(0).station())
      << "direct neighbour, not via the router";
}

TEST_F(Internet, FragmentedMessageSurvivesForwarding) {
  const std::size_t size = 6000;  // several fragments
  sa0.send(pb0, pa0, make_pattern_buffer(size));
  run();
  ASSERT_EQ(got_b0.size(), 1u);
  EXPECT_EQ(got_b0[0].size(), size);
  EXPECT_TRUE(check_pattern_buffer(got_b0[0]))
      << "fragments must reassemble after the extra hop";
}

TEST_F(Internet, MulticastFloodsToTheOtherNetwork) {
  const Address g = group_address(77);
  std::vector<Buffer> ga1, gb0;
  sa1.join_group(g, save(&ga1));
  sb0.join_group(g, save(&gb0));
  sa0.send(g, pa0, make_pattern_buffer(64));
  run();
  EXPECT_EQ(ga1.size(), 1u) << "same-net member";
  EXPECT_EQ(gb0.size(), 1u) << "member across the router";
}

TEST_F(Internet, HopCountStopsRunawayPackets) {
  // A packet that arrives at the router with hop_count 0 must be dropped,
  // not forwarded. Build one by hand and inject it toward the router.
  PacketHeader h;
  h.type = PacketType::unidata;
  h.dst = pb0;
  h.src = pa0;
  h.total_len = 4;
  h.hop_count = 0;
  BufView pkt = encode_packet(h, make_pattern_buffer(4));
  da0.send_unicast(rtr.nic(0).station(), std::move(pkt), 116);
  run();
  EXPECT_EQ(got_b0.size(), 0u);
  EXPECT_GE(router.stats().hops_exhausted, 1u);
}

TEST_F(Internet, LocateFailsForAddressOnNoNetwork) {
  sa0.send(process_address(99), pa0, make_pattern_buffer(4));
  run();
  EXPECT_GE(sa0.stats().locate_failures, 1u);
}

TEST(InternetChain, ThreeSegmentsTwoRouters) {
  // a0 -- netA -- R1 -- netB -- R2 -- netC -- c0: unicast and multicast
  // must traverse two store-and-forward hops; hop counts decrement twice.
  sim::CostModel model = sim::CostModel::mc68030_ether10();
  sim::Engine engine;
  sim::EthernetSegment net_a(engine, model, 1);
  sim::EthernetSegment net_b(engine, model, 2);
  sim::EthernetSegment net_c(engine, model, 3);

  sim::Node a0(engine, net_a, model, 0);
  sim::Node c0(engine, net_c, model, 1);
  sim::Node r1(engine, net_a, model, 2);
  sim::Node r2(engine, net_b, model, 3);
  const std::size_t r1_b = r1.add_port(net_b);
  const std::size_t r2_c = r2.add_port(net_c);

  transport::SimExecutor xa(a0), xc(c0), x1(r1), x2(r2);
  transport::SimDevice da(a0), dc(c0);
  transport::SimDevice d1a(r1, 0), d1b(r1, r1_b);
  transport::SimDevice d2b(r2, 0), d2c(r2, r2_c);

  FlipStack sa(xa, da), sc(xc, dc);
  FlipStack router1(x1, d1a), router2(x2, d2b);
  router1.add_device(d1b);
  router1.set_forwarding(true);
  router2.add_device(d2c);
  router2.set_forwarding(true);

  const Address pa = process_address(1);
  const Address pc = process_address(2);
  std::vector<Buffer> got_a, got_c;
  sa.register_endpoint(pa, [&](Address, Address, BufView b) {
    got_a.push_back(Buffer(b.begin(), b.end()));
  });
  sc.register_endpoint(pc, [&](Address, Address, BufView b) {
    got_c.push_back(Buffer(b.begin(), b.end()));
  });

  // Unicast across two routers (locate chains through both).
  sa.send(pc, pa, make_pattern_buffer(500));
  engine.run_until(engine.now() + Duration::seconds(10));
  ASSERT_EQ(got_c.size(), 1u);
  EXPECT_TRUE(check_pattern_buffer(got_c[0]));

  // And back.
  sc.send(pa, pc, make_pattern_buffer(300));
  engine.run_until(engine.now() + Duration::seconds(10));
  ASSERT_EQ(got_a.size(), 1u);
  EXPECT_EQ(got_a[0].size(), 300u);

  // Multicast floods the whole chain.
  const Address g = group_address(9);
  std::vector<Buffer> gc;
  sc.join_group(g, [&](Address, Address, BufView b) {
    gc.push_back(Buffer(b.begin(), b.end()));
  });
  sa.send(g, pa, make_pattern_buffer(64));
  engine.run_until(engine.now() + Duration::seconds(5));
  EXPECT_EQ(gc.size(), 1u);

  EXPECT_GE(router1.stats().packets_forwarded, 2u);
  EXPECT_GE(router2.stats().packets_forwarded, 2u);
}

// --- The group protocol across two networks -------------------------------

TEST(InternetGroup, TotalOrderSpansSegments) {
  // Three members on net A, two on net B, a router in between; the
  // sequencer sits on net A. FLIP hides the topology from the protocol.
  sim::CostModel model = sim::CostModel::mc68030_ether10();
  sim::Engine engine;
  sim::EthernetSegment net_a(engine, model, 1);
  sim::EthernetSegment net_b(engine, model, 2);

  std::vector<std::unique_ptr<sim::Node>> nodes;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<sim::Node>(engine, net_a, model, i));
  }
  for (int i = 3; i < 5; ++i) {
    nodes.push_back(std::make_unique<sim::Node>(engine, net_b, model, i));
  }
  auto router_node = std::make_unique<sim::Node>(engine, net_a, model, 9);
  const std::size_t rport = router_node->add_port(net_b);

  transport::SimExecutor rexec(*router_node);
  transport::SimDevice rdev_a(*router_node, 0), rdev_b(*router_node, rport);
  FlipStack router(rexec, rdev_a);
  router.add_device(rdev_b);
  router.set_forwarding(true);

  group::GroupConfig cfg;
  std::vector<std::unique_ptr<group::SimProcess>> procs;
  for (std::size_t i = 0; i < 5; ++i) {
    procs.push_back(std::make_unique<group::SimProcess>(
        *nodes[i], process_address(i + 1), cfg));
  }

  const Address gaddr = group_address(0x1234);
  std::size_t formed = 0;
  procs[0]->member().create_group(gaddr, [&](Status s) {
    ASSERT_EQ(s, Status::ok);
    ++formed;
  });
  using Join = Chain<std::size_t>;
  const Join join_next([&](const Join& next, std::size_t i) {
    if (i >= procs.size()) return;
    procs[i]->member().join_group(gaddr, [&, i, next](Status s) {
      ASSERT_EQ(s, Status::ok) << "join of member " << i;
      ++formed;
      next(i + 1);
    });
  });
  join_next(1);

  const Time deadline = engine.now() + Duration::seconds(60);
  while (formed < 5 && engine.now() < deadline && engine.pending() > 0) {
    engine.run_steps(64);
  }
  ASSERT_EQ(formed, 5u);

  // Concurrent senders on both segments.
  int completed = 0;
  for (const std::size_t p : {std::size_t{1}, std::size_t{4}}) {
    const Chain<int> pump([&, p](const Chain<int>& next, int k) {
      if (k >= 10) return;
      Buffer b(2);
      b[0] = static_cast<std::uint8_t>(p);
      b[1] = static_cast<std::uint8_t>(k);
      procs[p]->user_send(std::move(b), [&, k, next](Status s) {
        ASSERT_EQ(s, Status::ok);
        ++completed;
        next(k + 1);
      });
    });
    pump(0);
  }
  const Time deadline2 = engine.now() + Duration::seconds(120);
  while (engine.now() < deadline2 && engine.pending() > 0) {
    engine.run_steps(64);
    bool all = completed == 20;
    for (auto& p : procs) {
      std::size_t apps = 0;
      for (const auto& m : p->delivered()) {
        if (m.kind == group::MessageKind::app) ++apps;
      }
      all = all && apps >= 20;
    }
    if (all) break;
  }

  // Identical streams on both sides of the router.
  for (std::size_t i = 0; i < 5; ++i) {
    std::size_t apps = 0;
    for (const auto& m : procs[i]->delivered()) {
      if (m.kind == group::MessageKind::app) ++apps;
    }
    ASSERT_EQ(apps, 20u) << "member " << i;
  }
  const auto& ref = procs[0]->delivered();
  for (std::size_t i = 1; i < 5; ++i) {
    const auto& got = procs[i]->delivered();
    std::size_t ri = 0, gi = 0;
    while (ri < ref.size() && gi < got.size()) {
      if (seq_lt(ref[ri].seq, got[gi].seq)) {
        ++ri;
      } else if (seq_lt(got[gi].seq, ref[ri].seq)) {
        ++gi;
      } else {
        EXPECT_EQ(ref[ri].sender, got[gi].sender);
        EXPECT_EQ(ref[ri].data, got[gi].data);
        ++ri;
        ++gi;
      }
    }
  }
}

}  // namespace
}  // namespace amoeba::flip
