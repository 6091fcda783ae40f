// _GNU_SOURCE exposes sendmmsg/recvmmsg; must precede every glibc header.
#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include "transport/udp_runtime.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <linux/sock_diag.h>
#include <net/if.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "common/logging.hpp"

namespace amoeba::transport {

namespace {

Time steady_now() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return Time{std::chrono::duration_cast<std::chrono::nanoseconds>(t).count()};
}

const sim::CostModel& zero_costs() {
  static const sim::CostModel model = sim::CostModel::free();
  return model;
}

/// Datagrams per sendmmsg/recvmmsg syscall. 32 covers the full multicast
/// fan-out of a sizeable group plus a pipeline of back-to-back sends.
constexpr unsigned kIoBatch = 32;
/// Transmit-path error budget: after a soft failure (EAGAIN/ENOBUFS) the
/// unsent tail is retried immediately this many times, then behind a
/// poll-for-writable of `kTxPollMs` each, before the tail is dropped and
/// left to the protocol's retransmission machinery.
constexpr int kTxSoftSpins = 8;
constexpr int kTxPolls = 16;
constexpr int kTxPollMs = 10;
/// Largest payload a UDP datagram can carry at all (64 KiB IP minus
/// IP + UDP headers); normalize() rejects anything beyond it.
constexpr std::size_t kUdpHardMax = 65507;
/// IP (20) + UDP (8) header bytes between payload size and wire size.
constexpr std::size_t kIpUdpOverhead = 28;
/// The reserved 239.192/16 group every station joins when kernel
/// multicast comes up: the broadcast channel, and the construction-time
/// probe that a join can succeed at all. group_ip_be() never maps a
/// subscription key onto it.
constexpr std::uint32_t kBroadcastGroupHost = 0xEFC0FFFFu;  // 239.192.255.255

std::uint32_t broadcast_group_be() { return htonl(kBroadcastGroupHost); }

void set_nonblock(int fd) { ::fcntl(fd, F_SETFL, O_NONBLOCK); }

/// Receive buffer every runtime socket asks for. The kernel default
/// (net.core.rmem_default, 212992 B) held only 92 datagrams of 1100 B when
/// an unread loopback socket was filled on a 4-vCPU Linux 6.x host: fewer
/// than the history_size = 128 messages a member may fall behind before the
/// sequencer throttles anyone, so a burst overflowed the socket and every
/// lost datagram cost a NACK and a retransmission. 4 MiB, which Linux
/// accounts as 8 MiB, held 3640 such datagrams: a full window of 6-fragment
/// 8 KiB BB messages (768 datagrams) with room to spare.
constexpr int kRxBufferBytes = 4 << 20;

int rcvbuf_of(int fd) {
  int bytes = 0;
  socklen_t len = sizeof(bytes);
  if (::getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, &len) != 0) return 0;
  return bytes;
}

/// Raise `fd`'s receive buffer to kRxBufferBytes; a larger default is left
/// alone. Plain SO_RCVBUF (not SO_RCVBUFFORCE), so the administrator's
/// net.core.rmem_max cap holds; the first capped socket logs a warning.
void size_rx_buffer(int fd) {
  if (rcvbuf_of(fd) >= kRxBufferBytes) return;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kRxBufferBytes,
               sizeof(kRxBufferBytes));
  // Linux doubles the request for bookkeeping, so a full grant reads back
  // as 2 * kRxBufferBytes.
  const int granted = rcvbuf_of(fd);
  static std::atomic<bool> warned{false};
  if (granted < 2 * kRxBufferBytes && !warned.exchange(true)) {
    log_warn("udp",
             "SO_RCVBUF capped at %d B; raise net.core.rmem_max to %d or "
             "bursts will overflow the receive sockets",
             granted, kRxBufferBytes);
  }
}

/// The runtime whose loop() runs on this thread, if any.
thread_local const UdpRuntime* t_loop_owner = nullptr;

}  // namespace

Status UdpOptions::normalize() {
  if (max_payload < 128 || max_payload > kUdpHardMax) return Status::bad_config;
  if (tx_queue_hwm == 0) return Status::bad_config;
  if (kernel_multicast && mcast_ifaddr.empty()) return Status::bad_config;
  // An over-small bound clamps to a sane floor instead of failing.
  tx_queue_hwm = std::max<std::size_t>(tx_queue_hwm, 64);
  return Status::ok;
}

UdpRuntime::UdpRuntime(std::uint16_t port) {
  UdpOptions options;
  options.port = port;
  init(options);
}

UdpRuntime::UdpRuntime(const UdpOptions& options) { init(options); }

void UdpRuntime::init(const UdpOptions& options) {
  opts_ = options;
  if (opts_.normalize() != Status::ok) {
    throw std::invalid_argument("UdpRuntime: UdpOptions failed normalize()");
  }
  epoch_ = steady_now();
  // Receive-slot size: payload + FLIP header + CRC headroom, never below
  // the 2 KiB pool class the classic 1400-byte configuration recycles.
  rx_slot_bytes_ = std::max<std::size_t>(2048, opts_.max_payload + 256);

  auto fail = [this](const std::string& what) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    if (mcast_fd_ >= 0) ::close(mcast_fd_);
    if (wake_rd_ >= 0) ::close(wake_rd_);
    if (wake_wr_ >= 0 && wake_wr_ != wake_rd_) ::close(wake_wr_);
    throw std::runtime_error("UdpRuntime: " + what);
  };

  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) fail("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    fail("bind() failed");
  }
  size_rx_buffer(fd_);
  socklen_t len = sizeof(addr);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  local_port_ = ntohs(addr.sin_port);

  // Validate max_payload against the bound interface's MTU (we bind
  // loopback, whose MTU is typically 65536). If the query fails, the
  // kUdpHardMax cap from normalize() already bounds us.
  {
    ifreq ifr{};
    std::strncpy(ifr.ifr_name, "lo", IFNAMSIZ - 1);
    if (::ioctl(fd_, SIOCGIFMTU, &ifr) == 0 &&
        opts_.max_payload + kIpUdpOverhead >
            static_cast<std::size_t>(ifr.ifr_mtu)) {
      ::close(fd_);
      fd_ = -1;
      throw std::invalid_argument(
          "UdpRuntime: max_payload + IP/UDP overhead exceeds the interface "
          "MTU");
    }
  }

  // Wake channel: eventfd (one word, one fd) with a pipe fallback.
  wake_rd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_rd_ >= 0) {
    wake_wr_ = wake_rd_;
    wake_is_eventfd_ = true;
  } else {
    int p[2];
    if (::pipe(p) != 0) fail("eventfd() and pipe() both failed");
    set_nonblock(p[0]);
    set_nonblock(p[1]);
    wake_rd_ = p[0];
    wake_wr_ = p[1];
  }

  if (opts_.kernel_multicast) setup_multicast();
}

void UdpRuntime::setup_multicast() {
  auto fallback = [this](const char* what) {
    io_stats_.mcast_join_failures.fetch_add(1, std::memory_order_relaxed);
    log_warn("udp",
             "kernel multicast unavailable (%s, errno=%d); "
             "falling back to unicast fan-out",
             what, errno);
    if (mcast_fd_ >= 0) ::close(mcast_fd_);
    mcast_fd_ = -1;
    mcast_port_ = 0;
    mcast_active_ = false;
  };

  in_addr if_ia{};
  if (::inet_pton(AF_INET, opts_.mcast_ifaddr.c_str(), &if_ia) != 1) {
    errno = EINVAL;
    return fallback("bad mcast_ifaddr");
  }
  mcast_if_be_ = if_ia.s_addr;

  // Dedicated receive socket on the shared multicast port. Every station
  // on the host binds the same port (SO_REUSEADDR/SO_REUSEPORT), and the
  // kernel delivers each group datagram to every socket that joined the
  // group; FLIP's address match filters the rest.
  mcast_fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (mcast_fd_ < 0) return fallback("socket() failed");
  const int one = 1;
  if (::setsockopt(mcast_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    return fallback("SO_REUSEADDR failed");
  }
  ::setsockopt(mcast_fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  // Receive only the groups this socket joined, not every group some
  // other socket on the host joined on the same port.
  const int zero = 0;
  ::setsockopt(mcast_fd_, IPPROTO_IP, IP_MULTICAST_ALL, &zero, sizeof(zero));
  size_rx_buffer(mcast_fd_);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(kMcastPort);
  if (::bind(mcast_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fallback("bind(kMcastPort) failed");
  }
  mcast_port_ = kMcastPort;

  // Egress setup on the TX socket: pin the interface and enable loopback
  // delivery so single-host benches see their own group traffic.
  ip_mreqn egress{};
  egress.imr_address = if_ia;
  if (::setsockopt(fd_, IPPROTO_IP, IP_MULTICAST_IF, &egress,
                   sizeof(egress)) != 0) {
    return fallback("IP_MULTICAST_IF failed");
  }
  const int loop_on = 1;
  if (::setsockopt(fd_, IPPROTO_IP, IP_MULTICAST_LOOP, &loop_on,
                   sizeof(loop_on)) != 0) {
    return fallback("IP_MULTICAST_LOOP failed");
  }

  // Probe join: the permanent broadcast group. If this fails, every
  // per-key join would too — fan-out fallback, per FLIP's position that
  // hardware multicast is an optimization, not a requirement.
  ip_mreqn join{};
  join.imr_multiaddr.s_addr = broadcast_group_be();
  join.imr_address = if_ia;
  if (::setsockopt(mcast_fd_, IPPROTO_IP, IP_ADD_MEMBERSHIP, &join,
                   sizeof(join)) != 0) {
    return fallback("IP_ADD_MEMBERSHIP failed");
  }
  mcast_active_ = true;
}

UdpRuntime::~UdpRuntime() {
  stop();
  if (fd_ >= 0) ::close(fd_);
  if (mcast_fd_ >= 0) ::close(mcast_fd_);
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0 && wake_wr_ != wake_rd_) ::close(wake_wr_);
}

std::uint64_t UdpRuntime::kernel_rx_drops() const {
  std::uint64_t drops = 0;
  auto add = [&drops](int fd) {
    std::uint32_t mem[SK_MEMINFO_VARS] = {};
    socklen_t len = sizeof(mem);
    if (::getsockopt(fd, SOL_SOCKET, SO_MEMINFO, mem, &len) == 0 &&
        len > SK_MEMINFO_DROPS * sizeof(mem[0])) {
      drops += mem[SK_MEMINFO_DROPS];
    }
  };
  add(fd_);
  if (mcast_fd_ >= 0) add(mcast_fd_);
  return drops;
}

std::size_t UdpRuntime::rx_buffer_bytes() const {
  return static_cast<std::size_t>(rcvbuf_of(fd_));
}

void UdpRuntime::set_station_table(
    StationId self_station,
    const std::vector<std::pair<std::string, std::uint16_t>>& endpoints) {
  if (running_.load()) {
    throw std::logic_error(
        "UdpRuntime: station table is immutable after start()");
  }
  std::lock_guard lock(mu_);
  self_ = self_station;
  stations_.clear();
  by_addr_.clear();
  for (StationId i = 0; i < endpoints.size(); ++i) {
    Endpoint ep;
    in_addr ia{};
    if (::inet_pton(AF_INET, endpoints[i].first.c_str(), &ia) != 1) {
      throw std::runtime_error("UdpRuntime: bad address " + endpoints[i].first);
    }
    ep.ip_be = ia.s_addr;
    ep.port_be = htons(endpoints[i].second);
    stations_.push_back(ep);
    by_addr_[{ep.ip_be, ep.port_be}] = i;
  }
}

void UdpRuntime::start() {
  if (running_.exchange(true)) return;
  loop_thread_ = std::thread([this] { loop(); });
}

void UdpRuntime::stop() {
  if (!running_.exchange(false)) return;
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
}

void UdpRuntime::wake() {
  // The loop thread re-checks tasks_, timers_ and tx_queue_ before its next
  // poll (see the lock protocol in the header), so its own wakes are free.
  if (t_loop_owner == this) return;
  // Suppressor: while a wake is in flight (written but not yet drained by
  // the loop), further wakes are free. The loop clears the flag after
  // draining the fd and BEFORE re-checking the queues, so a post that
  // slips in between either sees the flag still set (the loop will look)
  // or writes a fresh wake.
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) {
    io_stats_.wakes_suppressed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  io_stats_.wakeups.fetch_add(1, std::memory_order_relaxed);
  if (wake_is_eventfd_) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_wr_, &one, sizeof(one));
  } else {
    const char b = 1;
    [[maybe_unused]] const auto n = ::write(wake_wr_, &b, 1);
  }
}

void UdpRuntime::drain_wake_fd() {
  if (wake_is_eventfd_) {
    // A non-semaphore eventfd resets to zero on the first read.
    std::uint64_t v = 0;
    [[maybe_unused]] const auto n = ::read(wake_rd_, &v, sizeof(v));
  } else {
    char drain[64];
    while (::read(wake_rd_, drain, sizeof(drain)) > 0) {
    }
  }
  wake_pending_.store(false, std::memory_order_release);
}

Time UdpRuntime::now() const { return Time{(steady_now() - epoch_).ns}; }

void UdpRuntime::post(Duration, std::function<void()> fn) {
  // Caller holds mu_ (all protocol work runs under the runtime mutex).
  tasks_.push(std::move(fn));
  wake();
}

void UdpRuntime::charge(Duration) {}

TimerId UdpRuntime::set_timer(Duration delay, std::function<void()> fn) {
  const TimerId id = next_timer_++;
  timers_.push(TimerEntry{now() + delay, id, std::move(fn)});
  pending_timers_.insert(id);
  wake();
  return id;
}

void UdpRuntime::cancel_timer(TimerId id) {
  if (id == kInvalidTimer) return;
  // Only remember the cancellation while the entry is still queued; a
  // cancel after the timer fired (or was already cancelled) is a no-op, so
  // cancelled_timers_ stays bounded by the live timer count.
  if (pending_timers_.erase(id) > 0) cancelled_timers_.insert(id);
}

const sim::CostModel& UdpRuntime::costs() const { return zero_costs(); }

std::uint32_t UdpRuntime::group_ip_be(std::uint64_t mcast_key) {
  // Fold the 64-bit key onto 239.192.x.y. Distinct keys may collide on one
  // group; FLIP filters over-delivery by address match, so a collision
  // costs bandwidth, never correctness.
  std::uint32_t fold = static_cast<std::uint32_t>(
      (mcast_key ^ (mcast_key >> 16) ^ (mcast_key >> 32) ^ (mcast_key >> 48)) &
      0xFFFFu);
  if (fold == 0xFFFFu) fold = 0xFFFEu;  // 239.192.255.255 = broadcast group
  return htonl(0xEFC00000u | fold);
}

void UdpRuntime::enqueue_tx(Endpoint to, BufView payload, bool mcast) {
  // Caller holds mu_ (Device sends are posted tasks / protocol handlers).
  tx_queue_.push_back(PendingTx{to, std::move(payload), mcast});
  if (tx_queue_.size() >= opts_.tx_queue_hwm) {
    // Backpressure: flush inline, still under mu_, instead of letting a
    // stalled flusher grow the queue without bound. The deliberate
    // exception to "syscalls outside mu_" — bounded memory wins.
    io_stats_.tx_queue_hwm_hits.fetch_add(1, std::memory_order_relaxed);
    std::vector<PendingTx> batch;
    batch.swap(tx_queue_);
    flush_tx(batch);
    return;
  }
  wake();
}

void UdpRuntime::flush_tx(std::vector<PendingTx>& batch) {
  std::array<mmsghdr, kIoBatch> msgs;
  std::array<iovec, kIoBatch> iovs;
  std::array<sockaddr_in, kIoBatch> addrs;
  std::size_t done = 0;
  while (done < batch.size()) {
    const auto n = static_cast<unsigned>(
        std::min<std::size_t>(kIoBatch, batch.size() - done));
    for (unsigned i = 0; i < n; ++i) {
      const PendingTx& tx = batch[done + i];
      sockaddr_in& addr = addrs[i];
      std::memset(&addr, 0, sizeof(addr));
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = tx.to.ip_be;
      addr.sin_port = tx.to.port_be;
      iovs[i].iov_base =
          const_cast<std::uint8_t*>(tx.payload.data());  // sendmsg ABI
      iovs[i].iov_len = tx.payload.size();
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_name = &addr;
      msgs[i].msg_hdr.msg_namelen = sizeof(addr);
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    // Send the batch, retrying the unsent tail. A partial sendmmsg return
    // or a soft errno must NOT discard the remainder: these frames carry
    // live protocol traffic, and dropping them here turns one transient
    // kernel-buffer hiccup into a retransmission storm one RTT later.
    unsigned sent = 0;
    int spins = 0;
    int polls = 0;
    while (sent < n) {
      const int rc = ::sendmmsg(fd_, msgs.data() + sent, n - sent, 0);
      if (rc > 0) {
        for (unsigned i = sent; i < sent + static_cast<unsigned>(rc); ++i) {
          if (batch[done + i].mcast) {
            io_stats_.tx_mcast_datagrams.fetch_add(1,
                                                   std::memory_order_relaxed);
          }
        }
        sent += static_cast<unsigned>(rc);
        io_stats_.tx_datagrams.fetch_add(static_cast<std::uint64_t>(rc),
                                         std::memory_order_relaxed);
        io_stats_.tx_batches.fetch_add(1, std::memory_order_relaxed);
        spins = 0;
        continue;
      }
      if (rc < 0 && errno == EINTR) {
        io_stats_.tx_eintr.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                     errno == ENOBUFS)) {
        io_stats_.tx_soft_errors.fetch_add(1, std::memory_order_relaxed);
        if (++spins <= kTxSoftSpins) continue;
        if (++polls <= kTxPolls && running_.load()) {
          // Kernel buffers full: wait for writability instead of burning
          // the CPU, then take another run at the tail.
          pollfd pfd{fd_, POLLOUT, 0};
          ::poll(&pfd, 1, kTxPollMs);
          io_stats_.tx_pollouts.fetch_add(1, std::memory_order_relaxed);
          spins = 0;
          continue;
        }
      }
      // Hard error, or the soft-error budget ran out (or we are shutting
      // down): count and drop the tail; NACK/retry recovers the loss.
      io_stats_.tx_dropped.fetch_add(n - sent, std::memory_order_relaxed);
      log_warn("udp", "sendmmsg gave up: errno=%d, dropped=%u", errno,
               n - sent);
      break;
    }
    done += n;
  }
  batch.clear();
}

void UdpRuntime::send_unicast(StationId dst, BufView payload, std::size_t) {
  if (dst == self_) {
    // Local short-circuit, still asynchronous like a real loopback.
    post(Duration::zero(), [this, p = std::move(payload)]() mutable {
      if (rx_) rx_(self_, std::move(p));
    });
    return;
  }
  if (dst >= stations_.size()) return;
  enqueue_tx(stations_[dst], std::move(payload), false);
}

void UdpRuntime::send_multicast(std::uint64_t mcast_key, BufView payload,
                                std::size_t) {
  if (mcast_active_) {
    // One group datagram replaces the (N-1)-unicast fan-out below.
    if (stations_.size() > 2) {
      io_stats_.fanout_avoided.fetch_add(stations_.size() - 2,
                                         std::memory_order_relaxed);
    }
    enqueue_tx(Endpoint{group_ip_be(mcast_key), htons(mcast_port_)},
               std::move(payload), true);
    return;
  }
  // Fan-out unicast to every other station; FLIP semantics say multicast
  // reaches subscribers only, but subscription filtering happens in the
  // FLIP layer by address match, so over-delivery here is harmless. Each
  // queued frame is a view of the same backing bytes, and the whole
  // fan-out goes out in one sendmmsg batch.
  for (StationId s = 0; s < stations_.size(); ++s) {
    if (s == self_) continue;
    enqueue_tx(stations_[s], BufView(payload), false);
  }
}

void UdpRuntime::send_broadcast(BufView payload, std::size_t wire_bytes) {
  if (mcast_active_) {
    if (stations_.size() > 2) {
      io_stats_.fanout_avoided.fetch_add(stations_.size() - 2,
                                         std::memory_order_relaxed);
    }
    enqueue_tx(Endpoint{broadcast_group_be(), htons(mcast_port_)},
               std::move(payload), true);
    return;
  }
  send_multicast(0, std::move(payload), wire_bytes);
}

void UdpRuntime::subscribe(std::uint64_t mcast_key) {
  if (!mcast_active_) return;  // fan-out delivers everything anyway
  const std::uint32_t grp = group_ip_be(mcast_key);
  std::lock_guard lock(mcast_mu_);
  const auto it = mcast_refs_.find(grp);
  if (it != mcast_refs_.end()) {  // already a member via another key
    ++it->second;
    return;
  }
  ip_mreqn join{};
  join.imr_multiaddr.s_addr = grp;
  join.imr_address.s_addr = mcast_if_be_;
  if (::setsockopt(mcast_fd_, IPPROTO_IP, IP_ADD_MEMBERSHIP, &join,
                   sizeof(join)) != 0) {
    // Record NOTHING: the membership does not exist (e.g. the per-socket
    // igmp_max_memberships cap), and a refcount here would make every
    // later subscribe to this group a silent no-op while senders keep
    // using the kernel-multicast path — that group's traffic would be
    // lost for good. With no entry, the next subscribe retries the join
    // (by then memberships may have been freed).
    io_stats_.mcast_join_failures.fetch_add(1, std::memory_order_relaxed);
    log_warn("udp", "IP_ADD_MEMBERSHIP failed: errno=%d", errno);
    return;
  }
  mcast_refs_[grp] = 1;
}

void UdpRuntime::unsubscribe(std::uint64_t mcast_key) {
  if (!mcast_active_) return;
  const std::uint32_t grp = group_ip_be(mcast_key);
  std::lock_guard lock(mcast_mu_);
  const auto it = mcast_refs_.find(grp);
  if (it == mcast_refs_.end()) return;
  if (--it->second > 0) return;
  mcast_refs_.erase(it);
  ip_mreqn leave{};
  leave.imr_multiaddr.s_addr = grp;
  leave.imr_address.s_addr = mcast_if_be_;
  ::setsockopt(mcast_fd_, IPPROTO_IP, IP_DROP_MEMBERSHIP, &leave,
               sizeof(leave));
}

void UdpRuntime::set_receive_handler(
    std::function<void(StationId, BufView)> fn) {
  std::lock_guard lock(mu_);
  rx_ = std::move(fn);
}

bool UdpRuntime::classify_source(std::uint32_t ip_be, std::uint16_t port_be,
                                 StationId* src) {
  const auto it = by_addr_.find({ip_be, port_be});
  if (it == by_addr_.end()) {
    io_stats_.rx_unknown_peer.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (it->second == self_) {
    // Our own looped-back multicast (unicast-to-self short-circuits and
    // never reaches a socket).
    io_stats_.rx_self_dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  *src = it->second;
  return true;
}

void UdpRuntime::drain_socket_mmsg(
    int fd, bool is_mcast, std::vector<SharedBuffer>& slots,
    std::vector<std::pair<StationId, BufView>>& out) {
  std::array<mmsghdr, kIoBatch> msgs;
  std::array<iovec, kIoBatch> iovs;
  std::array<sockaddr_in, kIoBatch> froms;
  while (true) {
    for (unsigned i = 0; i < kIoBatch; ++i) {
      iovs[i].iov_base = slots[i].data();
      iovs[i].iov_len = slots[i].capacity();
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_name = &froms[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(froms[i]);
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const int got =
        ::recvmmsg(fd, msgs.data(), kIoBatch, MSG_DONTWAIT, nullptr);
    if (got < 0 && errno == EINTR) {
      // A signal mid-drain must not abandon the readable socket.
      io_stats_.rx_eintr.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (got <= 0) break;
    // Station lookup runs lock-free (the table is immutable after start);
    // slots with a match become zero-copy views and are replaced by fresh
    // pooled buffers.
    for (std::size_t i = 0; i < static_cast<std::size_t>(got); ++i) {
      io_stats_.rx_datagrams.fetch_add(1, std::memory_order_relaxed);
      if (is_mcast) {
        io_stats_.rx_mcast_datagrams.fetch_add(1, std::memory_order_relaxed);
      }
      if ((msgs[i].msg_hdr.msg_flags & MSG_TRUNC) != 0) {
        io_stats_.rx_truncated.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      StationId src = kBroadcastStation;
      if (!classify_source(froms[i].sin_addr.s_addr, froms[i].sin_port,
                           &src)) {
        continue;
      }
      SharedBuffer slot = std::move(slots[i]);
      slot.resize(msgs[i].msg_len);
      slots[i] = SharedBuffer::allocate(rx_slot_bytes_);
      out.emplace_back(src, BufView(std::move(slot)));
    }
    if (static_cast<unsigned>(got) < kIoBatch) break;
  }
}

void UdpRuntime::loop() {
  t_loop_owner = this;
  // Receive slots: pooled buffers refilled as datagrams are consumed. The
  // handler keeps a view of the datagram; the slot's backing returns to
  // the pool when the last view drops.
  std::vector<SharedBuffer> slots(kIoBatch);
  for (auto& s : slots) s = SharedBuffer::allocate(rx_slot_bytes_);
  std::vector<SharedBuffer> mcast_slots;
  if (mcast_active_) {
    mcast_slots.resize(kIoBatch);
    for (auto& s : mcast_slots) s = SharedBuffer::allocate(rx_slot_bytes_);
  }

  std::vector<PendingTx> tx_batch;
  // Dispatch scratch: (station, datagram view) per received frame.
  std::vector<std::pair<StationId, BufView>> rx_batch;
  rx_batch.reserve(kIoBatch);

  while (running_.load()) {
    int timeout_ms = 1000;
    {
      std::unique_lock lock(mu_);
      // Dispatch due timers and queued tasks.
      while (true) {
        // Purge cancelled timers at the head (their ids were erased from
        // pending_timers_ at cancel time).
        while (!timers_.empty() &&
               cancelled_timers_.erase(timers_.top().id) > 0) {
          timers_.pop();
        }
        if (!tasks_.empty()) {
          auto fn = std::move(tasks_.front());
          tasks_.pop();
          fn();
          continue;
        }
        if (!timers_.empty() && timers_.top().at <= now()) {
          auto fn = timers_.top().fn;
          pending_timers_.erase(timers_.top().id);
          timers_.pop();
          fn();
          continue;
        }
        break;
      }
      if (!timers_.empty()) {
        const auto wait_ns = (timers_.top().at - now()).ns;
        timeout_ms = static_cast<int>(std::max<std::int64_t>(
            0, std::min<std::int64_t>(wait_ns / 1'000'000 + 1, 1000)));
      }
      tx_batch.swap(tx_queue_);
    }
    // Syscalls happen outside mu_: blocked user threads never wait on the
    // kernel. The views in tx_batch pin the frame bytes.
    if (!tx_batch.empty()) {
      flush_tx(tx_batch);
      continue;  // tasks may have been posted while unlocked; re-dispatch
    }

    pollfd fds[3];
    int nfds = 0;
    fds[nfds++] = {fd_, POLLIN, 0};
    const int mcast_idx = mcast_active_ ? nfds : -1;
    if (mcast_active_) fds[nfds++] = {mcast_fd_, POLLIN, 0};
    const int wake_idx = nfds;
    fds[nfds++] = {wake_rd_, POLLIN, 0};

    const int rc = ::poll(fds, static_cast<nfds_t>(nfds), timeout_ms);
    if (rc < 0) continue;
    const bool woke = (fds[wake_idx].revents & POLLIN) != 0;
    if (woke) drain_wake_fd();

    if ((fds[0].revents & POLLIN) != 0) {
      drain_socket_mmsg(fd_, /*is_mcast=*/false, slots, rx_batch);
    }
    if (mcast_idx >= 0 && (fds[mcast_idx].revents & POLLIN) != 0) {
      drain_socket_mmsg(mcast_fd_, /*is_mcast=*/true, mcast_slots, rx_batch);
    }
    // One mu_ acquisition dispatches the whole batch.
    const bool did_rx = !rx_batch.empty();
    if (did_rx) {
      std::unique_lock lock(mu_);
      if (rx_) {
        for (auto& [station, view] : rx_batch) {
          rx_(station, std::move(view));
        }
      }
      rx_batch.clear();
    }

    if (woke && !did_rx) {
      // A wake with nothing behind it (the work was already harvested by a
      // previous pass, or this is the shutdown kick) is spurious.
      std::lock_guard lock(mu_);
      if (tasks_.empty() && tx_queue_.empty() &&
          (timers_.empty() || timers_.top().at > now())) {
        io_stats_.wake_spurious.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace amoeba::transport
