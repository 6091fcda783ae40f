// Host facts the benchmark reads: CPU placement, the fingerprint printed
// with every result, process and thread CPU time, and the kernel's UDP
// receive-buffer drop counters.
#pragma once

#include <cstdint>
#include <pthread.h>
#include <string>
#include <vector>

namespace e2e {

/// Pin the calling thread — and so every thread it starts afterwards — to
/// the highest-numbered CPU it may run on. Returns that CPU, or -1.
int pin_to_one_cpu();

struct HostFingerprint {
  int pinned_cpu{-1};
  std::string cpu_model;
  long nproc{0};
  std::string kernel;
  std::string build_type;
};
HostFingerprint host_fingerprint(int pinned_cpu);

struct ProcessCpu {
  std::int64_t user_ns{0};
  std::int64_t sys_ns{0};
  std::int64_t ctx_switches{0};  // voluntary + involuntary
  std::int64_t max_rss_kib{0};
};
ProcessCpu process_cpu();

/// CPU time consumed so far by a running thread of this process.
std::int64_t thread_cpu_ns(pthread_t thread);

/// Sum of the `drops` column of /proc/net/udp over sockets bound to
/// 127.0.0.1 on one of `ports`.
std::uint64_t udp_drops(const std::vector<std::uint16_t>& ports);

}  // namespace e2e
