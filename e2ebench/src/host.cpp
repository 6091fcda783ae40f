#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>

namespace e2e {

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &allowed)) cpu = i;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

HostFingerprint host_fingerprint(int pinned_cpu) {
  HostFingerprint h;
  h.pinned_cpu = pinned_cpu;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu_model = line.substr(line.find_first_not_of(" \t", colon + 1));
      }
      break;
    }
  }
  h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  utsname u{};
  if (uname(&u) == 0) h.kernel = u.release;
  h.build_type = E2E_BUILD_TYPE;
  return h;
}

ProcessCpu process_cpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
  };
  return ProcessCpu{.user_ns = ns(ru.ru_utime),
                    .sys_ns = ns(ru.ru_stime),
                    .ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw,
                    .max_rss_kib = ru.ru_maxrss};
}

std::int64_t thread_cpu_ns(pthread_t thread) {
  clockid_t clock;
  timespec ts{};
  if (pthread_getcpuclockid(thread, &clock) != 0 ||
      clock_gettime(clock, &ts) != 0) {
    return 0;
  }
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint64_t udp_drops(const std::vector<std::uint16_t>& ports) {
  // Lines look like:
  //   sl local_address rem_address st tx_queue:rx_queue tr:tm->when
  //   retrnsmt uid timeout inode ref pointer drops
  // with addresses as hex "0100007F:1F90" (127.0.0.1:8080).
  std::ifstream in("/proc/net/udp");
  std::string line;
  std::getline(in, line);  // header
  std::uint64_t drops = 0;
  while (std::getline(in, line)) {
    std::istringstream f(line);
    std::string sl, local;
    if (!(f >> sl >> local)) continue;
    const auto colon = local.find(':');
    if (colon == std::string::npos || local.substr(0, colon) != "0100007F") {
      continue;
    }
    const auto port =
        static_cast<std::uint16_t>(std::stoul(local.substr(colon + 1), nullptr, 16));
    if (std::find(ports.begin(), ports.end(), port) == ports.end()) continue;
    std::string field, last;
    while (f >> field) last = field;
    drops += std::stoull(last);
  }
  return drops;
}

}  // namespace e2e
