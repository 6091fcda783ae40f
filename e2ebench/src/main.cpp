// End-to-end benchmark of the group protocol over real loopback sockets.
//
//   e2ebench --workload <delay_pb_64b|saturate_pb_1k|stream_bb_8k>
//            --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// --trace 0 measures the end-to-end metrics with tracing off and no
// interposer. --trace 1 runs the workload twice for half the time each,
// untraced and then traced, and reports the per-layer metrics, the
// measured per-layer self-time table and the tracing overhead (the
// difference between the two halves). The last line of standard output
// is one JSON object; the exit code is non-zero on any delivery
// violation. See NOTES.md beside this directory's build file.
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "host.hpp"
#include "probes.hpp"
#include "station.hpp"

namespace e2e {
namespace {

namespace amo = amoeba;

constexpr int kSetupRounds = 24;
constexpr int kSetupsPerRound = 2;
constexpr double kSetupRoundGapSeconds = 0.04;
constexpr double kWarmupSeconds = 1.0;
constexpr auto kDrainTimeout = std::chrono::seconds(10);
/// Raw spans each thread keeps for the span file (totals cover all).
constexpr std::size_t kKeepSpansPerThread = 20000;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string spans_path;
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") {
        a->workload = v;
        have_workload = true;
      } else if (k == "--seed") {
        a->seed = std::stoull(v);
      } else if (k == "--seconds") {
        a->seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") return false;
        a->trace = v == "1";
      } else if (k == "--spans") {
        a->spans_path = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && a->seconds > 0;
}

void sleep_for_seconds(double s) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(static_cast<std::int64_t>(s * 1e9)));
}

/// Counters read at the edges of the timed window; metrics are deltas.
struct Snapshot {
  ProcessCpu cpu;
  std::int64_t harness_cpu_ns{0};
  std::uint64_t tx_datagrams{0}, tx_batches{0}, rx_datagrams{0};
  std::uint64_t wakeups{0}, wake_spurious{0};
  std::uint64_t flip_packets{0};
  std::uint64_t history_stalls{0}, send_retries{0}, nacks{0}, retransmits{0};
  std::uint64_t status_polls{0}, batch_frames{0}, batch_msgs{0};
  std::uint64_t pool_hits{0}, pool_misses{0};
  std::uint64_t udp_drops{0};
};

/// `harness` is the workload's application or generator thread, if any;
/// its CPU clock is read while it runs (the end of the window is read by
/// the thread itself as it exits, see run_window).
Snapshot take_snapshot(Cluster& c, std::thread* harness) {
  Snapshot s;
  for (int i = 0; i < kStations; ++i) {
    Station& st = c[i];
    const amo::transport::UdpIoStats& io = st.runtime().io_stats();
    s.tx_datagrams += io.tx_datagrams.load();
    s.tx_batches += io.tx_batches.load();
    s.rx_datagrams += io.rx_datagrams.load();
    s.wakeups += io.wakeups.load();
    s.wake_spurious += io.wake_spurious.load();
    const amo::group::GroupStats& g = st.group_stats();
    s.history_stalls += g.history_stalls;
    s.send_retries += g.send_retries_fired;
    s.nacks += g.nacks_sent;
    s.retransmits += g.retransmits_served;
    s.status_polls += g.status_polls;
    s.batch_frames += g.batch_frames_emitted;
    s.batch_msgs += g.batch_messages_packed;
    // Buffer-pool counters are thread-local: read them on the loop thread.
    std::promise<amo::detail::PoolStats> pool;
    auto pool_future = pool.get_future();
    {
      std::lock_guard lock(st.mutex());
      s.flip_packets += st.flip().stats().packets_sent;
      st.runtime().post(amo::Duration{}, [&pool] { pool.set_value(amo::detail::pool_stats()); });
    }
    const amo::detail::PoolStats p = pool_future.get();
    s.pool_hits += p.pool_hits;
    s.pool_misses += p.pool_misses;
  }
  s.udp_drops = udp_drops(c.ports());
  if (harness != nullptr && harness->joinable()) {
    s.harness_cpu_ns = thread_cpu_ns(harness->native_handle());
  }
  s.cpu = process_cpu();
  return s;
}

/// stream_bb_8k's open-loop generator: a fixed aggregate rate, a seeded
/// choice of sending station per message, each send stamped with its
/// scheduled time so a stall counts against every message behind it.
void generate(RunShared& sh, Cluster& c, std::uint64_t seed, Histogram* late) {
  // Wake on the schedule, not up to the default 50 us timer slack after it.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::mt19937_64 rng(seed ^ 0x5EED5EED5EEDULL);
  const auto period = static_cast<std::int64_t>(1e9 / kStreamRatePerSec);
  std::int64_t due = now_ns() + period;
  while (sh.phase.load() != Phase::drain) {
    const timespec ts{.tv_sec = due / 1'000'000'000, .tv_nsec = due % 1'000'000'000};
    clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
    if (sh.phase.load() == Phase::drain) break;
    if (sh.phase.load() == Phase::measure) {
      late->record(static_cast<std::uint64_t>(std::max<std::int64_t>(0, now_ns() - due)));
    }
    Station& st = c[static_cast<int>(rng() % kStations)];
    {
      std::lock_guard lock(st.mutex());
      st.issue(due);
    }
    due += period;
  }
}

struct WindowResult {
  double seconds{0};
  Snapshot a, b;
  std::uint64_t attempted{0};  // every send of the run, warm-up included
  std::uint64_t window_attempted{0}, window_ok{0}, window_slow{0};
  std::uint64_t failed{0};      // sends completing with a non-ok Status
  std::uint64_t violations{0};  // missing/duplicate/reordered/corrupt/diverged
  std::uint64_t delivered{0};   // per station
  Histogram latency;
  Histogram gen_late;
  // Per slice of the window: completions per second, CPU per completion,
  // and the latencies of the sends due in it.
  std::vector<double> slice_msg_s;
  std::vector<double> slice_cpu_us;
  std::vector<Histogram> slice_latency;

  double msgs() const { return static_cast<double>(window_ok); }
  double per_msg(double x) const { return window_ok > 0 ? x / msgs() : 0.0; }
  double cpu_us_per_msg() const {
    return per_msg(static_cast<double>(b.cpu.user_ns - a.cpu.user_ns + b.cpu.sys_ns -
                                       a.cpu.sys_ns)) / 1e3;
  }
  double p_us(double q) const { return static_cast<double>(latency.percentile(q)) / 1e3; }
};

/// Run the workload's load on a formed cluster: warm up, measure the
/// window `sh` sets out slice by slice, stop issuing, wait until every
/// station delivered every send, stop the stations and check the streams.
WindowResult run_window(RunShared& sh, Cluster& c, std::uint64_t seed) {
  WindowResult r;
  std::thread harness;
  std::int64_t harness_exit_cpu = 0;
  const auto own_cpu = [] { return thread_cpu_ns(pthread_self()); };
  switch (sh.workload->kind) {
    case WorkloadKind::delay_pb_64b:
      harness = std::thread([&] {
        c[1].client_loop();
        harness_exit_cpu = own_cpu();
      });
      break;
    case WorkloadKind::saturate_pb_1k:
      for (int i = 0; i < kStations; ++i) {
        std::lock_guard lock(c[i].mutex());
        c[i].issue(now_ns());
      }
      break;
    case WorkloadKind::stream_bb_8k:
      harness = std::thread([&] {
        generate(sh, c, seed, &r.gen_late);
        harness_exit_cpu = own_cpu();
      });
      break;
  }
  sleep_for_seconds(kWarmupSeconds);
  r.a = take_snapshot(c, &harness);
  if (sh.tracer != nullptr) sh.tracer->set_enabled(true);
  const auto completed = [&c] {
    std::uint64_t n = 0;
    for (int i = 0; i < kStations; ++i) n += c[i].tally().window_ok.load();
    return n;
  };
  const std::int64_t t0 = now_ns();
  sh.window_start_ns.store(t0);
  sh.phase.store(Phase::measure);
  std::int64_t prev_t = t0;
  std::uint64_t prev_ok = 0;
  ProcessCpu prev_cpu = process_cpu();
  for (std::size_t k = 1; k <= sh.slices; ++k) {
    sleep_for_seconds(static_cast<double>(t0 + static_cast<std::int64_t>(k) * sh.slice_ns -
                                          now_ns()) / 1e9);
    const std::int64_t t = now_ns();
    const std::uint64_t ok = completed();
    const ProcessCpu cpu = process_cpu();
    const auto done = static_cast<double>(ok - prev_ok);
    r.slice_msg_s.push_back(done * 1e9 / static_cast<double>(t - prev_t));
    r.slice_cpu_us.push_back(
        done > 0 ? static_cast<double>(cpu.user_ns - prev_cpu.user_ns + cpu.sys_ns -
                                       prev_cpu.sys_ns) / done / 1e3
                 : 0.0);
    prev_t = t;
    prev_ok = ok;
    prev_cpu = cpu;
  }
  sh.phase.store(Phase::drain);
  r.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  if (sh.tracer != nullptr) sh.tracer->set_enabled(false);
  r.b = take_snapshot(c, nullptr);
  if (harness.joinable()) {
    harness.join();
    r.b.harness_cpu_ns = harness_exit_cpu;
  }

  const auto issued = [&c] {
    std::uint64_t n = 0;
    for (int i = 0; i < kStations; ++i) n += c[i].tally().issued.load();
    return n;
  };
  const auto quiet = [&] {
    std::uint64_t finished = 0;
    for (int i = 0; i < kStations; ++i) finished += c[i].tally().finished.load();
    const std::uint64_t total = issued();
    if (finished != total) return false;
    for (int i = 0; i < kStations; ++i) {
      std::lock_guard lock(c[i].mutex());
      if (c[i].check().delivered() != total) return false;
    }
    return true;
  };
  const auto deadline = std::chrono::steady_clock::now() + kDrainTimeout;
  while (!quiet() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  c.stop();

  r.attempted = issued();
  const StreamCheck& ref = c[0].check();
  r.delivered = ref.delivered();
  for (int i = 0; i < kStations; ++i) {
    Station& st = c[i];
    const SendTally& t = st.tally();
    r.window_attempted += t.window_attempted.load();
    r.window_ok += t.window_ok.load();
    r.window_slow += t.window_slow.load();
    r.failed += t.failed.load();
    r.latency.merge(st.latency());
    r.slice_latency.resize(st.slice_latency().size());
    for (std::size_t k = 0; k < r.slice_latency.size(); ++k) {
      r.slice_latency[k].merge(st.slice_latency()[k]);
    }
    const StreamCheck& chk = st.check();
    r.violations += chk.violations() + st.errors();
    if (chk.delivered() < r.attempted) r.violations += r.attempted - chk.delivered();
    if (chk.delivered() != ref.delivered() || chk.hash() != ref.hash()) ++r.violations;
  }
  return r;
}

/// Spans that measure CPU work (the rest measure waiting), in the order
/// of the self-time table, with the layer each one times.
constexpr SpanName kCpuSpans[] = {SpanName::send_call,    SpanName::group_task,
                                  SpanName::flip_task,    SpanName::rx_frame,
                                  SpanName::device_send,  SpanName::syscall_send,
                                  SpanName::syscall_recv, SpanName::app_deliver};

const char* span_layer(SpanName s) {
  switch (s) {
    case SpanName::send_call: return "group (send call)";
    case SpanName::group_task: return "group (tasks)";
    case SpanName::flip_task: return "flip (tasks)";
    case SpanName::rx_frame: return "flip (rx upcall)";
    case SpanName::device_send: return "transport (queue)";
    case SpanName::syscall_send: return "transport (sendmmsg)";
    case SpanName::syscall_recv: return "transport (recvmmsg)";
    case SpanName::app_deliver: return "harness";
    default: return "-";
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;
};

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& ms, bool with_samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + fmt(ms[i].value) + ", \"unit\": \"" +
           ms[i].unit + "\"";
    if (with_samples) out += ", \"samples\": " + std::to_string(ms[i].samples);
    out += "}";
  }
  return out + "}";
}

void print_table(const std::vector<Metric>& ms) {
  std::printf("%-34s %16s %-8s %10s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : ms) {
    std::printf("%-34s %16s %-8s %10llu\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
}

void print_correctness(const WindowResult& r, const char* label) {
  std::printf("correctness (%s): %llu sends, %d stations delivered %llu each; "
              "%llu failed sends, %llu delivery violations\n",
              label, static_cast<unsigned long long>(r.attempted), kStations,
              static_cast<unsigned long long>(r.delivered),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.violations));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Median over the window's slices of a per-slice latency percentile (us).
double slice_percentile_us(const WindowResult& r, double q) {
  std::vector<double> v;
  for (const Histogram& h : r.slice_latency) {
    if (h.count() > 0) v.push_back(static_cast<double>(h.percentile(q)) / 1e3);
  }
  return v.empty() ? 0.0 : median(v);
}

/// End-to-end metrics: tracing off, no interposer. Rates, latencies and CPU
/// are medians over the window's slices, so a few seconds of interference
/// from outside the process do not move them.
std::vector<Metric> end_to_end(const WindowResult& r, const std::vector<double>& setups) {
  const std::uint64_t n = r.latency.count();
  const double attempted = static_cast<double>(std::max<std::uint64_t>(1, r.window_attempted));
  return {
      {"setup_s", median(setups), "s", setups.size()},
      {"throughput_msg_s", median(r.slice_msg_s), "msg/s", r.window_ok},
      {"latency_p50_us", slice_percentile_us(r, 0.50), "us", n},
      {"latency_p90_us", slice_percentile_us(r, 0.90), "us", n},
      {"latency_p99_us", slice_percentile_us(r, 0.99), "us", n},
      {"over_50ms_ratio", static_cast<double>(r.window_slow) / attempted, "ratio",
       r.window_attempted},
      {"cpu_us_per_msg", median(r.slice_cpu_us), "us", r.window_ok},
      {"failed_ratio",
       static_cast<double>(r.failed + r.violations) /
           static_cast<double>(std::max<std::uint64_t>(1, r.attempted)),
       "ratio", r.attempted},
      {"max_rss_mb", static_cast<double>(r.b.cpu.max_rss_kib) / 1024.0, "MB", 1},
  };
}

/// The end-to-end metrics BENCHMARK.json lists. failed_ratio is the JSON's
/// failed/attempted and over_50ms_ratio is 0 whenever no retry timer fires,
/// so neither can carry a relative bound. latency_p99_us moves too much
/// between runs on this kind of host to gate (see NOTES.md);
/// latency_p90_us is the tail the gate holds.
bool in_contract(const Metric& m) {
  return m.name != "over_50ms_ratio" && m.name != "failed_ratio" &&
         m.name != "latency_p99_us";
}

/// Per-layer metrics of the traced window `t`, with the untraced window
/// `u` of the same length for the tracing overhead.
std::vector<Metric> per_layer(const WindowResult& u, const WindowResult& t,
                              const std::vector<SpanTotals>& spans, const CodecCosts& codecs) {
  const Snapshot& a = t.a;
  const Snapshot& b = t.b;
  const std::uint64_t n = t.window_ok;
  const auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };
  const auto ratio = [](double x, double y) { return y > 0 ? x / y : 0.0; };
  const auto total = [&](SpanName s) -> const SpanTotals& {
    return spans[static_cast<std::size_t>(s)];
  };
  const auto span_count = [&](SpanName s) { return total(s).count; };
  const auto self_cpu_ns = [&](SpanName s) {
    return ratio(static_cast<double>(total(s).self_cpu_ns), static_cast<double>(total(s).count));
  };
  const auto wall_us = [&](SpanName s) {
    return ratio(static_cast<double>(total(s).wall_ns), static_cast<double>(total(s).count)) / 1e3;
  };
  const auto self_us_per_msg = [&](SpanName s) {
    return t.per_msg(static_cast<double>(total(s).self_cpu_ns)) / 1e3;
  };
  double span_self_us = 0;
  for (const SpanName s : kCpuSpans) span_self_us += self_us_per_msg(s);
  const double kmsg = static_cast<double>(n) / 1e3;
  const std::uint64_t probes = 15;
  return {
      {"transport.tx_datagrams_per_msg", t.per_msg(d(a.tx_datagrams, b.tx_datagrams)), "count", n},
      {"transport.rx_datagrams_per_msg", t.per_msg(d(a.rx_datagrams, b.rx_datagrams)), "count", n},
      {"transport.datagrams_per_sendmmsg",
       ratio(d(a.tx_datagrams, b.tx_datagrams), d(a.tx_batches, b.tx_batches)), "count",
       static_cast<std::uint64_t>(d(a.tx_batches, b.tx_batches))},
      {"transport.wakeups_per_msg", t.per_msg(d(a.wakeups, b.wakeups)), "count", n},
      {"transport.wake_spurious_ratio",
       ratio(d(a.wake_spurious, b.wake_spurious), d(a.wakeups, b.wakeups)), "ratio",
       static_cast<std::uint64_t>(d(a.wakeups, b.wakeups))},
      {"transport.ctx_switches_per_msg",
       t.per_msg(static_cast<double>(b.cpu.ctx_switches - a.cpu.ctx_switches)), "count", n},
      {"transport.sys_cpu_us_per_msg",
       t.per_msg(static_cast<double>(b.cpu.sys_ns - a.cpu.sys_ns)) / 1e3, "us", n},
      {"transport.device_send_ns", self_cpu_ns(SpanName::device_send), "ns",
       span_count(SpanName::device_send)},
      {"transport.sendmmsg_ns", self_cpu_ns(SpanName::syscall_send), "ns",
       span_count(SpanName::syscall_send)},
      {"transport.recvmmsg_ns", self_cpu_ns(SpanName::syscall_recv), "ns",
       span_count(SpanName::syscall_recv)},
      {"transport.rcvbuf_drops_per_kmsg", ratio(d(a.udp_drops, b.udp_drops), kmsg), "count", n},
      {"flip.packets_per_msg", t.per_msg(d(a.flip_packets, b.flip_packets)), "count", n},
      {"flip.rx_frame_ns", self_cpu_ns(SpanName::rx_frame), "ns",
       span_count(SpanName::rx_frame)},
      {"flip.task_ns", self_cpu_ns(SpanName::flip_task), "ns", span_count(SpanName::flip_task)},
      {"flip.encode_packet_ns", codecs.flip_encode_ns, "ns", probes},
      {"flip.decode_packet_ns", codecs.flip_decode_ns, "ns", probes},
      {"common.crc32_ns_per_kib", codecs.crc32_ns_per_kib, "ns", probes},
      {"common.pool_miss_ratio",
       ratio(d(a.pool_misses, b.pool_misses),
             d(a.pool_misses, b.pool_misses) + d(a.pool_hits, b.pool_hits)),
       "ratio", static_cast<std::uint64_t>(d(a.pool_misses, b.pool_misses) + d(a.pool_hits, b.pool_hits))},
      {"group.send_to_accept_us", wall_us(SpanName::send_to_accept), "us",
       span_count(SpanName::send_to_accept)},
      {"group.accept_to_deliver_us", wall_us(SpanName::accept_to_deliver), "us",
       span_count(SpanName::accept_to_deliver)},
      {"group.task_ns", self_cpu_ns(SpanName::group_task), "ns", span_count(SpanName::group_task)},
      {"group.encode_wire_ns", codecs.group_encode_ns, "ns", probes},
      {"group.decode_wire_ns", codecs.group_decode_ns, "ns", probes},
      {"group.history_stalls_per_kmsg", ratio(d(a.history_stalls, b.history_stalls), kmsg), "count", n},
      {"group.send_retries_per_kmsg", ratio(d(a.send_retries, b.send_retries), kmsg), "count", n},
      {"group.nacks_per_kmsg", ratio(d(a.nacks, b.nacks), kmsg), "count", n},
      {"group.retransmits_per_kmsg", ratio(d(a.retransmits, b.retransmits), kmsg), "count", n},
      {"group.status_polls_per_kmsg", ratio(d(a.status_polls, b.status_polls), kmsg), "count", n},
      {"group.msgs_per_frame", ratio(d(a.batch_msgs, b.batch_msgs), d(a.batch_frames, b.batch_frames)),
       "count", static_cast<std::uint64_t>(d(a.batch_frames, b.batch_frames))},
      {"harness.gen_late_p50_us", static_cast<double>(t.gen_late.percentile(0.50)) / 1e3, "us",
       t.gen_late.count()},
      {"harness.gen_late_p99_us", static_cast<double>(t.gen_late.percentile(0.99)) / 1e3, "us",
       t.gen_late.count()},
      {"harness.cpu_us_per_msg", t.per_msg(static_cast<double>(b.harness_cpu_ns - a.harness_cpu_ns)) / 1e3,
       "us", n},
      {"e2e.over_50ms_ratio",
       ratio(static_cast<double>(u.window_slow), static_cast<double>(u.window_attempted)), "ratio",
       u.window_attempted},
      {"selftime.send_call_us_per_msg", self_us_per_msg(SpanName::send_call), "us", n},
      {"selftime.group_task_us_per_msg", self_us_per_msg(SpanName::group_task), "us", n},
      {"selftime.flip_task_us_per_msg", self_us_per_msg(SpanName::flip_task), "us", n},
      {"selftime.rx_frame_us_per_msg", self_us_per_msg(SpanName::rx_frame), "us", n},
      {"selftime.device_send_us_per_msg", self_us_per_msg(SpanName::device_send), "us", n},
      {"selftime.sendmmsg_us_per_msg", self_us_per_msg(SpanName::syscall_send), "us", n},
      {"selftime.recvmmsg_us_per_msg", self_us_per_msg(SpanName::syscall_recv), "us", n},
      {"selftime.app_deliver_us_per_msg", self_us_per_msg(SpanName::app_deliver), "us", n},
      {"selftime.other_us_per_msg", u.cpu_us_per_msg() - span_self_us, "us", n},
      {"trace.overhead_latency_p50_us", t.p_us(0.50) - u.p_us(0.50), "us", t.latency.count()},
      {"trace.overhead_cpu_us_per_msg", t.cpu_us_per_msg() - u.cpu_us_per_msg(), "us", n},
  };
}

/// Table 3 measured on this host: CPU self time per message by layer,
/// from the traced window `t`, against the untraced window `u`'s CPU.
void print_self_time_table(const WindowResult& u, const WindowResult& t,
                           const std::vector<SpanTotals>& spans) {
  const double total_us = u.cpu_us_per_msg();
  const auto share = [&](double us) { return total_us > 0 ? 100 * us / total_us : 0.0; };
  std::printf("\nmeasured per-layer self time (CPU per completed send)\n");
  std::printf("%-22s %-13s %10s %13s %12s %7s\n", "layer", "span", "spans/msg", "self ns/span",
              "self us/msg", "share");
  double spans_us = 0;
  for (const SpanName name : kCpuSpans) {
    const SpanTotals& st = spans[static_cast<std::size_t>(name)];
    const double self_ns =
        st.count > 0 ? static_cast<double>(st.self_cpu_ns) / static_cast<double>(st.count) : 0;
    const double us = t.per_msg(static_cast<double>(st.self_cpu_ns)) / 1e3;
    spans_us += us;
    std::printf("%-22s %-13s %10.3f %13.1f %12.3f %6.1f%%\n", span_layer(name), span_name(name),
                t.per_msg(static_cast<double>(st.count)), self_ns, us, share(us));
  }
  const double other_us = total_us - spans_us;
  std::printf("%-22s %-13s %10s %13s %12.3f %6.1f%%\n", "other", "-", "-", "-", other_us,
              share(other_us));
  std::printf("%-22s %-13s %10s %13s %12.3f\n", "total CPU (untraced)", "-", "-", "-", total_us);
  std::printf("'other' is outside every span: the poll loop, wake-ups, the scheduler, and\n"
              "a BlockingGroup station's own sends and group tasks. System CPU is %.3f us/msg\n"
              "of the untraced total.\n",
              u.per_msg(static_cast<double>(u.b.cpu.sys_ns - u.a.cpu.sys_ns)) / 1e3);
}

void print_host(const HostFingerprint& h) {
  std::printf("host: pinned_cpu=%d cpu_model=\"%s\" nproc=%ld kernel=%s build=%s\n",
              h.pinned_cpu, h.cpu_model.c_str(), h.nproc, h.kernel.c_str(),
              h.build_type.c_str());
}

std::string host_json(const HostFingerprint& h) {
  return "{\"pinned_cpu\": " + std::to_string(h.pinned_cpu) + ", \"cpu_model\": \"" +
         json_escape(h.cpu_model) + "\", \"nproc\": " + std::to_string(h.nproc) +
         ", \"kernel\": \"" + json_escape(h.kernel) + "\", \"build_type\": \"" +
         json_escape(h.build_type) + "\"}";
}

/// Write the kept spans and parse the file back, so a malformed file
/// fails the run instead of a later reader.
bool write_span_file(const std::string& path, const std::vector<Span>& spans) {
  {
    std::ofstream out(path);
    write_spans(out, spans);
    if (!out) return false;
  }
  std::ifstream in(path);
  std::vector<Span> back;
  return read_spans(in, &back) && back == spans;
}

int run(const Args& args) {
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Before any runtime thread exists, so every thread inherits the mask.
  const int cpu = pin_to_one_cpu();
  if (cpu < 0) {
    std::fprintf(stderr, "could not pin the process to one CPU\n");
    return 2;
  }
  const HostFingerprint host = host_fingerprint(cpu);
  std::printf("e2ebench workload=%s seed=%llu seconds=%g trace=%d\n", w->name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  print_host(host);

  std::vector<Metric> report;
  std::vector<Metric> contract;
  std::uint64_t attempted = 0, failed = 0, violations = 0;
  if (!args.trace) {
    RunShared sh(*w, args.seed, args.seconds);
    std::vector<double> setups;
    std::unique_ptr<Cluster> c;
    // The host's speed wanders from one fraction of a second to the next:
    // spread the set-ups over a second so their median does not hang on
    // one moment.
    for (int round = 0; round < kSetupRounds; ++round) {
      for (int i = 0; i < kSetupsPerRound; ++i) {
        c.reset();
        c = std::make_unique<Cluster>(sh);
        setups.push_back(c->setup_s());
      }
      sleep_for_seconds(kSetupRoundGapSeconds);
    }
    const WindowResult r = run_window(sh, *c, args.seed);
    c.reset();
    report = end_to_end(r, setups);
    print_table(report);
    std::printf("rates, latencies and CPU are medians over %zu slices of %.3g s; over the whole "
                "window: %s msg/s, p50 %s us, p99 %s us, p999 %s us, %s us CPU/msg\n",
                r.slice_msg_s.size(), static_cast<double>(sh.slice_ns) / 1e9,
                fmt(r.msgs() / r.seconds).c_str(), fmt(r.p_us(0.5)).c_str(),
                fmt(r.p_us(0.99)).c_str(), fmt(r.p_us(0.999)).c_str(),
                fmt(r.cpu_us_per_msg()).c_str());
    print_correctness(r, "untraced");
    for (const Metric& m : report) {
      if (in_contract(m)) contract.push_back(m);
    }
    attempted = r.attempted;
    failed = r.failed + r.violations;
    violations = r.violations;
  } else {
    const double half = args.seconds / 2;
    WindowResult untraced;
    {
      RunShared sh(*w, args.seed, half);
      Cluster c(sh);
      untraced = run_window(sh, c, args.seed);
    }
    Tracer tracer(kKeepSpansPerThread);
    tracer.calibrate();
    WindowResult traced;
    {
      RunShared sh(*w, args.seed, half);
      sh.tracer = &tracer;
      Cluster c(sh);
      attach_syscall_tracer(&tracer);
      traced = run_window(sh, c, args.seed);
      attach_syscall_tracer(nullptr);
    }
    const std::vector<SpanTotals> spans = tracer.totals();
    const CodecCosts codecs = measure_codecs(w->payload_bytes, w->broadcast_method,
                                             amo::transport::UdpOptions{}.max_payload, args.seed);
    report = per_layer(untraced, traced, spans, codecs);
    print_table(report);
    print_self_time_table(untraced, traced, spans);
    std::printf("tracing overhead: latency p50 %s us untraced -> %s us traced; "
                "CPU %s -> %s us/msg\n",
                fmt(untraced.p_us(0.5)).c_str(), fmt(traced.p_us(0.5)).c_str(),
                fmt(untraced.cpu_us_per_msg()).c_str(), fmt(traced.cpu_us_per_msg()).c_str());
    print_correctness(untraced, "untraced half");
    print_correctness(traced, "traced half");
    if (!args.spans_path.empty()) {
      const std::vector<Span> kept = tracer.kept();
      if (!write_span_file(args.spans_path, kept)) {
        std::fprintf(stderr, "could not write or re-read the span file %s\n",
                     args.spans_path.c_str());
        return 2;
      }
      std::printf("spans: %zu of %llu written to %s and read back\n", kept.size(),
                  static_cast<unsigned long long>([&] {
                    std::uint64_t n = 0;
                    for (const SpanTotals& s : spans) n += s.count;
                    return n;
                  }()),
                  args.spans_path.c_str());
    }
    contract = report;
    attempted = untraced.attempted + traced.attempted;
    failed = untraced.failed + untraced.violations + traced.failed + traced.violations;
    violations = untraced.violations + traced.violations;
  }
  const bool correct = violations == 0;
  std::printf("result: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
              "\"host\": %s, \"metrics\": %s}\n",
              w->name, static_cast<unsigned long long>(args.seed), fmt(args.seconds).c_str(),
              args.trace ? 1 : 0, host_json(host).c_str(), metrics_json(report, true).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json(contract, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <delay_pb_64b|saturate_pb_1k|stream_bb_8k> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n");
    return 2;
  }
  try {
    return e2e::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }
}
