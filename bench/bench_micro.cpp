// Library micro-benchmarks (google-benchmark): the hot paths of the
// implementation itself — wire codecs, CRC, the event engine, and a full
// simulated broadcast — so regressions in the substrate are visible
// independently of the paper-reproduction sweeps.
//
// By default results are also written to BENCH_micro.json (JSON format) so
// CI and the perf docs can diff runs; pass --benchmark_out=... to override.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "flip/packet.hpp"
#include "group/message.hpp"
#include "group/sim_harness.hpp"

namespace {

using namespace amoeba;

void BM_Crc32(benchmark::State& state) {
  const Buffer data = make_pattern_buffer(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1398)->Arg(8000);

// The slice-by-8 kernel alone: what crc32() costs on a CPU without
// PCLMULQDQ, and the tail path on every CPU.
void BM_Crc32Portable(benchmark::State& state) {
  const Buffer data = make_pattern_buffer(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(detail::crc32_portable(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32Portable)->Arg(64)->Arg(1398)->Arg(8000);

void BM_FlipEncodeDecode(benchmark::State& state) {
  flip::PacketHeader h;
  h.dst = flip::process_address(1);
  h.src = flip::process_address(2);
  h.total_len = static_cast<std::uint32_t>(state.range(0));
  const Buffer frag = make_pattern_buffer(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    BufView pkt = flip::encode_packet(h, frag);
    auto d = flip::decode_packet(std::move(pkt));
    benchmark::DoNotOptimize(d);
  }
}
// 164 B is a short fragment, the size of a 64 B group message's FLIP
// frame (60 B of group and user headers, the payload, the 40 B FLIP
// header); 1398 B is a full fragment.
BENCHMARK(BM_FlipEncodeDecode)->Arg(0)->Arg(164)->Arg(1398);

void BM_GroupWireEncodeDecode(benchmark::State& state) {
  group::WireMsg m;
  m.type = group::WireType::seq_data;
  m.seq = 42;
  m.payload = make_pattern_buffer(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    BufView bytes = group::encode_wire(m);
    auto d = group::decode_wire(std::move(bytes));
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_GroupWireEncodeDecode)->Arg(0)->Arg(1024)->Arg(8000);

/// The zero-copy acceptance benchmark: encode a group message and decode it
/// back, across the payload spectrum from a bare ack (8 B) to the paper's
/// largest fragment sweep (8 KiB). decode returns a *view* into the encoded
/// datagram, so the round trip costs one header parse and two refcount ops,
/// not a payload memcpy.
void BM_GroupRoundTrip(benchmark::State& state) {
  group::WireMsg m;
  m.type = group::WireType::seq_data;
  m.seq = 7;
  m.sender = 3;
  m.msg_id = 11;
  m.payload = make_pattern_buffer(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto d = group::decode_wire(group::encode_wire(m));
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GroupRoundTrip)->RangeMultiplier(4)->Range(8, 8192);

void BM_Rng(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(1000));
  }
}
BENCHMARK(BM_Rng);

void BM_EngineScheduleDispatch(benchmark::State& state) {
  sim::Engine engine;
  std::uint64_t counter = 0;
  for (auto _ : state) {
    engine.schedule(Duration::micros(1), [&counter] { ++counter; });
    engine.run_steps(1);
  }
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_EngineScheduleDispatch);

/// Full-stack cost of simulating one broadcast: world setup amortized,
/// measures virtual-message simulation rate (events/broadcast).
void BM_SimulatedBroadcast(benchmark::State& state) {
  group::GroupConfig cfg;
  cfg.method = group::Method::pb;
  group::SimGroupHarness h(static_cast<size_t>(state.range(0)), cfg);
  h.set_tracing(false);
  if (!h.form_group()) {
    state.SkipWithError("form_group failed");
    return;
  }
  for (auto _ : state) {
    bool done = false;
    h.process(1).user_send(Buffer{}, [&done](Status) { done = true; });
    h.run_until([&] { return done; }, Duration::seconds(10));
  }
}
BENCHMARK(BM_SimulatedBroadcast)->Arg(2)->Arg(8)->Arg(30)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // Default to emitting BENCH_micro.json unless the caller already chose an
  // output file; explicit flags always win.
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  // Names the CRC kernel behind the BM_Crc32 and BM_Flip* rows.
  benchmark::AddCustomContext("crc32_kernel", crc32_kernel());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
