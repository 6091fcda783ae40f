// Loopback scale-out benchmark for the real UDP transport (google
// benchmark): the {fanout, kernel-multicast} TX axis and many senders into
// one receive socket, measured as aggregate delivered msg/s
// (items_per_second) and per-message wall ns (real_time / kBurst).
//
// Everything runs against live sockets on 127.0.0.1 — this measures the
// device layer the paper tables sit on, not the simulator; see
// docs/PERF.md for how to read the numbers.
//
// By default results are also written to BENCH_udp.json (JSON format) so
// ci/check_bench_regression.py can diff runs; --benchmark_out= overrides.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "transport/udp_runtime.hpp"

namespace {

using namespace amoeba;
using transport::UdpOptions;
using transport::UdpRuntime;

constexpr std::size_t kPayload = 64;
/// Messages per timed iteration: small enough that a burst never
/// overflows the default loopback socket buffers (no drop-retry noise in
/// the measurement), large enough to amortize the wait handshake.
constexpr std::uint64_t kBurst = 64;

BufView frame() {
  SharedBuffer b = SharedBuffer::allocate(kPayload);
  std::memset(b.data(), 0x5a, kPayload);
  return BufView(std::move(b));
}

/// One station: a live runtime plus its delivered-frame counter.
struct Node {
  explicit Node(const UdpOptions& o) : rt(o) {
    rt.set_receive_handler([this](transport::StationId, BufView) {
      got.fetch_add(1, std::memory_order_relaxed);
    });
  }
  UdpRuntime rt;
  std::atomic<std::uint64_t> got{0};
};

/// Wire the stations into one table and start them.
void form(std::vector<std::unique_ptr<Node>>& nodes) {
  std::vector<std::pair<std::string, std::uint16_t>> table;
  for (auto& n : nodes) table.emplace_back("127.0.0.1", n->rt.local_port());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i]->rt.set_station_table(static_cast<transport::StationId>(i),
                                   table);
    nodes[i]->rt.start();
  }
}

bool await(const std::atomic<std::uint64_t>& ctr, std::uint64_t target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ctr.load(std::memory_order_relaxed) < target) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// ---------------------------------------------------------------------------
// TX axis: one sender broadcasting to 4 receivers — unicast fan-out
// (4 datagrams per message) vs one kernel-multicast datagram.
// ---------------------------------------------------------------------------

void broadcast_bench(benchmark::State& state, bool kmcast) {
  constexpr std::size_t kReceivers = 4;
  std::vector<std::unique_ptr<Node>> nodes;
  UdpOptions o;
  o.kernel_multicast = kmcast;
  nodes.push_back(std::make_unique<Node>(o));  // sender
  if (kmcast && !nodes[0]->rt.kernel_multicast_active()) {
    state.SkipWithError("kernel multicast unavailable");
    return;
  }
  for (std::size_t i = 0; i < kReceivers; ++i) {
    nodes.push_back(std::make_unique<Node>(o));
  }
  form(nodes);
  Node& sender = *nodes[0];

  std::uint64_t sent = 0;
  bool lost = false;
  for (auto _ : state) {
    for (std::uint64_t k = 0; k < kBurst; ++k) {
      std::lock_guard lock(sender.rt.mutex());
      sender.rt.send_broadcast(frame(), kPayload);
    }
    sent += kBurst;
    for (std::size_t i = 1; i < nodes.size(); ++i) {
      lost |= !await(nodes[i]->got, sent);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sent));
  if (lost) state.SkipWithError("datagrams lost on loopback");
  state.counters["tx_datagrams_per_msg"] = static_cast<double>(
      sender.rt.io_stats().tx_datagrams.load() / std::max<std::uint64_t>(
          1, sent));
  for (auto& n : nodes) n->rt.stop();
}

void BM_UdpBroadcastFanout(benchmark::State& s) {
  broadcast_bench(s, /*kmcast=*/false);
}
void BM_UdpBroadcastKmcast(benchmark::State& s) {
  broadcast_bench(s, /*kmcast=*/true);
}
BENCHMARK(BM_UdpBroadcastFanout)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_UdpBroadcastKmcast)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// RX: 4 senders blasting one receive socket.
// ---------------------------------------------------------------------------

void BM_UdpRxSingleSocket(benchmark::State& state) {
  constexpr std::size_t kSenders = 4;
  std::vector<std::unique_ptr<Node>> nodes;
  nodes.push_back(std::make_unique<Node>(UdpOptions{}));  // receiver = 0
  for (std::size_t i = 0; i < kSenders; ++i) {
    nodes.push_back(std::make_unique<Node>(UdpOptions{}));
  }
  form(nodes);
  Node& receiver = *nodes[0];

  std::uint64_t sent = 0;
  bool lost = false;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(kSenders);
    for (std::size_t s = 1; s <= kSenders; ++s) {
      threads.emplace_back([&, s] {
        for (std::uint64_t k = 0; k < kBurst / kSenders; ++k) {
          std::lock_guard lock(nodes[s]->rt.mutex());
          nodes[s]->rt.send_unicast(0, frame(), kPayload);
        }
      });
    }
    for (auto& t : threads) t.join();
    sent += kBurst;
    lost |= !await(receiver.got, sent);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sent));
  if (lost) state.SkipWithError("datagrams lost on loopback");
  for (auto& n : nodes) n->rt.stop();
}
BENCHMARK(BM_UdpRxSingleSocket)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  // Default to emitting BENCH_udp.json unless the caller already chose an
  // output file; explicit flags always win.
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_udp.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
