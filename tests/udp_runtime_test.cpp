// Real-socket integration tests: the same protocol bytes over UDP on
// loopback, with the blocking Table-1 API and application threads.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include "group/blocking.hpp"
#include "rpc/blocking.hpp"
#include "rpc/rpc.hpp"

namespace amoeba::group {
namespace {

/// One OS-process-worth of stack: runtime + FLIP + blocking group.
struct UdpProc {
  transport::UdpRuntime rt;
  flip::FlipStack flip;
  BlockingGroup grp;

  UdpProc(flip::Address addr, GroupConfig cfg)
      : rt(0), flip(rt, rt), grp(rt, flip, addr, cfg) {}
};

struct UdpFixture : ::testing::Test {
  static constexpr std::size_t kN = 3;
  std::vector<std::unique_ptr<UdpProc>> procs;
  flip::Address gaddr = flip::group_address(0x77);

  void SetUp() override {
    GroupConfig cfg;
    cfg.send_retry = Duration::millis(200);
    for (std::size_t i = 0; i < kN; ++i) {
      procs.push_back(
          std::make_unique<UdpProc>(flip::process_address(i + 1), cfg));
    }
    std::vector<std::pair<std::string, std::uint16_t>> table;
    for (auto& p : procs) table.emplace_back("127.0.0.1", p->rt.local_port());
    for (std::size_t i = 0; i < kN; ++i) {
      procs[i]->rt.set_station_table(static_cast<transport::StationId>(i),
                                     table);
      procs[i]->rt.start();
    }
  }

  void TearDown() override {
    for (auto& p : procs) p->rt.stop();
  }
};

TEST_F(UdpFixture, BlockingFormSendReceive) {
  ASSERT_EQ(procs[0]->grp.create_group(gaddr), Status::ok);
  ASSERT_EQ(procs[1]->grp.join_group(gaddr), Status::ok);
  ASSERT_EQ(procs[2]->grp.join_group(gaddr), Status::ok);
  EXPECT_EQ(procs[2]->grp.get_info().size(), 3u);

  // Sender thread + receiver threads, the Amoeba programming model.
  std::thread sender([&] {
    for (int k = 0; k < 10; ++k) {
      Buffer b(4);
      b[0] = static_cast<std::uint8_t>(k);
      ASSERT_EQ(procs[1]->grp.send_to_group(std::move(b)), Status::ok);
    }
  });

  std::vector<std::vector<int>> got(kN);
  std::vector<std::thread> receivers;
  for (std::size_t i = 0; i < kN; ++i) {
    receivers.emplace_back([&, i] {
      while (got[i].size() < 10) {
        auto r = procs[i]->grp.receive_from_group(Duration::seconds(10));
        ASSERT_TRUE(r.ok()) << "receive at " << i;
        if (r->kind == MessageKind::app) {
          got[i].push_back(r->data[0]);
        }
      }
    });
  }
  sender.join();
  for (auto& t : receivers) t.join();

  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(got[i].size(), 10u);
    for (int k = 0; k < 10; ++k) EXPECT_EQ(got[i][static_cast<size_t>(k)], k);
  }
}

TEST_F(UdpFixture, ConcurrentSendersTotalOrder) {
  ASSERT_EQ(procs[0]->grp.create_group(gaddr), Status::ok);
  ASSERT_EQ(procs[1]->grp.join_group(gaddr), Status::ok);
  ASSERT_EQ(procs[2]->grp.join_group(gaddr), Status::ok);

  constexpr int kPer = 15;
  std::vector<std::thread> senders;
  for (std::size_t i = 0; i < kN; ++i) {
    senders.emplace_back([&, i] {
      for (int k = 0; k < kPer; ++k) {
        Buffer b(4);
        b[0] = static_cast<std::uint8_t>(i);
        b[1] = static_cast<std::uint8_t>(k);
        ASSERT_EQ(procs[i]->grp.send_to_group(std::move(b)), Status::ok);
      }
    });
  }

  std::vector<std::vector<GroupMessage>> streams(kN);
  std::vector<std::thread> receivers;
  for (std::size_t i = 0; i < kN; ++i) {
    receivers.emplace_back([&, i] {
      int apps = 0;
      while (apps < static_cast<int>(kN) * kPer) {
        auto r = procs[i]->grp.receive_from_group(Duration::seconds(20));
        ASSERT_TRUE(r.ok());
        if (r->kind == MessageKind::app) {
          ++apps;
          streams[i].push_back(*r);
        }
      }
    });
  }
  for (auto& t : senders) t.join();
  for (auto& t : receivers) t.join();

  // Identical order everywhere (streams start after each member's join, so
  // align by seq).
  for (std::size_t i = 1; i < kN; ++i) {
    std::size_t a = 0, b = 0;
    while (a < streams[0].size() && b < streams[i].size()) {
      if (streams[0][a].seq < streams[i][b].seq) {
        ++a;
      } else if (streams[i][b].seq < streams[0][a].seq) {
        ++b;
      } else {
        EXPECT_EQ(streams[0][a].sender, streams[i][b].sender);
        EXPECT_EQ(streams[0][a].data, streams[i][b].data);
        ++a;
        ++b;
      }
    }
  }
}

TEST_F(UdpFixture, LeaveAndInfoOverSockets) {
  ASSERT_EQ(procs[0]->grp.create_group(gaddr), Status::ok);
  ASSERT_EQ(procs[1]->grp.join_group(gaddr), Status::ok);
  ASSERT_EQ(procs[2]->grp.join_group(gaddr), Status::ok);
  ASSERT_EQ(procs[1]->grp.leave_group(), Status::ok);
  // Remaining members converge on the 2-member view.
  for (int tries = 0; tries < 100; ++tries) {
    if (procs[0]->grp.get_info().size() == 2 &&
        procs[2]->grp.get_info().size() == 2) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(procs[0]->grp.get_info().size(), 2u);
  EXPECT_EQ(procs[2]->grp.get_info().size(), 2u);
}

TEST_F(UdpFixture, ReceiveTimeoutReturnsTimeout) {
  ASSERT_EQ(procs[0]->grp.create_group(gaddr), Status::ok);
  const auto r = procs[0]->grp.receive_from_group(Duration::millis(50));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status(), Status::timeout);
}

TEST_F(UdpFixture, CrashAndResetOverRealSockets) {
  ASSERT_EQ(procs[0]->grp.create_group(gaddr), Status::ok);
  ASSERT_EQ(procs[1]->grp.join_group(gaddr), Status::ok);
  ASSERT_EQ(procs[2]->grp.join_group(gaddr), Status::ok);
  ASSERT_EQ(procs[1]->grp.send_to_group(Buffer{1}), Status::ok);

  // The sequencer's process dies (we stop its runtime cold).
  procs[0]->rt.stop();

  // A send now times out; the application rebuilds with ResetGroup.
  const Status failed = procs[1]->grp.send_to_group(Buffer{2});
  EXPECT_EQ(failed, Status::timeout);
  EXPECT_TRUE(procs[1]->grp.failed());

  const auto rebuilt = procs[1]->grp.reset_group(2);
  ASSERT_TRUE(rebuilt.ok()) << to_string(rebuilt.status());
  EXPECT_EQ(*rebuilt, 2u);

  // Both survivors carry traffic again (allow the peer a moment to
  // install the result view).
  for (int tries = 0; tries < 100; ++tries) {
    if (procs[2]->grp.get_info().incarnation > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(procs[1]->grp.send_to_group(Buffer{3}), Status::ok);
  EXPECT_EQ(procs[2]->grp.send_to_group(Buffer{4}), Status::ok);
  const auto info = procs[1]->grp.get_info();
  EXPECT_EQ(info.size(), 2u);
  EXPECT_GT(info.incarnation, 0u);
}

TEST(UdpRpc, BlockingTransGetreqPutrep) {
  // The classic Amoeba shapes: a server thread loops getreq/putrep, a
  // client thread calls trans; a third party receives a ForwardRequest.
  transport::UdpRuntime srt(0), crt(0), trt(0);
  flip::FlipStack sflip(srt, srt), cflip(crt, crt), tflip(trt, trt);
  const auto sa = flip::process_address(1);
  const auto ca = flip::process_address(2);
  const auto ta = flip::process_address(3);
  rpc::BlockingRpc server(srt, sflip, sa);
  rpc::BlockingRpc client(crt, cflip, ca);
  rpc::BlockingRpc third(trt, tflip, ta);

  std::vector<std::pair<std::string, std::uint16_t>> table = {
      {"127.0.0.1", srt.local_port()},
      {"127.0.0.1", crt.local_port()},
      {"127.0.0.1", trt.local_port()},
  };
  srt.set_station_table(0, table);
  crt.set_station_table(1, table);
  trt.set_station_table(2, table);
  srt.start();
  crt.start();
  trt.start();

  std::thread server_thread([&] {
    for (int i = 0; i < 2; ++i) {
      auto req = server.get_request(Duration::seconds(10));
      ASSERT_TRUE(req.ok());
      if (req->data.size() == 1) {
        Buffer resp = req->data;
        resp[0] = static_cast<std::uint8_t>(resp[0] * 2);
        server.put_reply(*req, std::move(resp));
      } else {
        server.forward(*req, ta);  // ForwardRequest
      }
    }
  });
  std::thread third_thread([&] {
    auto req = third.get_request(Duration::seconds(10));
    ASSERT_TRUE(req.ok());
    third.put_reply(*req, Buffer{0xEE});
  });

  const auto r1 = client.call(sa, Buffer{21});
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value(), Buffer{42});

  const auto r2 = client.call(sa, Buffer{1, 2});  // gets forwarded
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value(), Buffer{0xEE});

  server_thread.join();
  third_thread.join();
  srt.stop();
  crt.stop();
  trt.stop();
}

TEST(UdpRpc, GetRequestTimesOutQuietly) {
  transport::UdpRuntime rt(0);
  flip::FlipStack flip(rt, rt);
  rpc::BlockingRpc server(rt, flip, flip::process_address(9));
  rt.set_station_table(0, {{"127.0.0.1", rt.local_port()}});
  rt.start();
  const auto r = server.get_request(Duration::millis(50));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status(), Status::timeout);
  rt.stop();
}

TEST(UdpRpc, CallOverLoopback) {
  transport::UdpRuntime server_rt(0), client_rt(0);
  flip::FlipStack server_flip(server_rt, server_rt);
  flip::FlipStack client_flip(client_rt, client_rt);
  const auto sa = flip::process_address(1);
  const auto ca = flip::process_address(2);
  rpc::RpcEndpoint server(server_flip, server_rt, sa);
  rpc::RpcEndpoint client(client_flip, client_rt, ca);

  std::vector<std::pair<std::string, std::uint16_t>> table = {
      {"127.0.0.1", server_rt.local_port()},
      {"127.0.0.1", client_rt.local_port()},
  };
  server_rt.set_station_table(0, table);
  client_rt.set_station_table(1, table);
  {
    std::lock_guard lock(server_rt.mutex());
    server.set_request_handler([&](const rpc::RpcEndpoint::Request& req) {
      Buffer resp = req.data;
      for (auto& b : resp) b = static_cast<std::uint8_t>(b + 1);
      server.reply(req, std::move(resp));
    });
  }
  server_rt.start();
  client_rt.start();

  std::mutex mu;
  std::condition_variable cv;
  std::optional<Buffer> got;
  {
    std::lock_guard lock(client_rt.mutex());
    client.call(sa, Buffer{1, 2, 3}, [&](Result<Buffer> r) {
      ASSERT_TRUE(r.ok());
      std::lock_guard g(mu);
      got = std::move(r).value();
      cv.notify_all();
    });
  }
  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return got.has_value(); }));
  EXPECT_EQ(*got, (Buffer{2, 3, 4}));
  client_rt.stop();
  server_rt.stop();
}

/// SO_RCVBUF a fresh UDP socket reads back after asking for 4 MiB: what
/// net.core.rmem_max lets any socket on this host have.
std::size_t host_rx_buffer_cap() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  int bytes = 4 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
  socklen_t len = sizeof(bytes);
  ::getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, &len);
  ::close(fd);
  return static_cast<std::size_t>(bytes);
}

template <typename Pred>
bool eventually(const Pred& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

TEST(UdpRxBuffer, BurstSentBeforeTheLoopRunsIsNotDropped) {
  // 512 datagrams of 1 KiB reach a receiver whose loop is not running
  // yet, as they would a member busy in a long dispatch. The kernel
  // default buffer (212992 B) holds about 92 of them; a 4 MiB buffer holds
  // every one, and the whole burst is delivered once the loop starts.
  const std::size_t cap = host_rx_buffer_cap();
  if (cap < (2u << 20)) {
    GTEST_SKIP() << "this host caps SO_RCVBUF at " << cap
                 << " B; raise it with sysctl -w net.core.rmem_max=4194304";
  }
  transport::UdpRuntime receiver(0), sender(0);
  EXPECT_GE(receiver.rx_buffer_bytes(), cap);
  std::vector<std::pair<std::string, std::uint16_t>> table = {
      {"127.0.0.1", receiver.local_port()},
      {"127.0.0.1", sender.local_port()},
  };
  receiver.set_station_table(0, table);
  sender.set_station_table(1, table);
  std::atomic<int> got{0};
  receiver.set_receive_handler(
      [&](transport::StationId, BufView) { got.fetch_add(1); });
  sender.start();

  constexpr int kFrames = 512;
  constexpr std::size_t kBytes = 1024;
  for (int k = 0; k < kFrames; ++k) {
    SharedBuffer b = SharedBuffer::allocate(kBytes);
    std::memset(b.data(), k & 0xFF, kBytes);
    std::lock_guard lock(sender.mutex());
    sender.send_unicast(0, BufView(std::move(b)), kBytes);
  }
  ASSERT_TRUE(eventually([&] {
    return sender.io_stats().tx_datagrams.load() ==
           static_cast<std::uint64_t>(kFrames);
  }));
  receiver.start();
  EXPECT_TRUE(eventually([&] { return got.load() == kFrames; }))
      << "delivered " << got.load() << " of " << kFrames;
  EXPECT_EQ(receiver.kernel_rx_drops(), 0u);
  sender.stop();
  receiver.stop();
}

}  // namespace
}  // namespace amoeba::group
