// Real-socket runtime: the same Executor/Device pair the simulator
// provides, backed by UDP sockets and an event-loop thread.
//
// Topology is a static station table (station id -> UDP endpoint), the
// moral equivalent of the paper's single-LAN configuration. One socket
// carries all unicast traffic, and multicast defaults to an N-1 unicast
// fan-out, so the paper-reproduction tables run on the original path.
// The one scale-out layer, off by default:
//
//   Kernel IP multicast (`UdpOptions::kernel_multicast`): `mcast_key`s map
//   onto 239.192/16 groups; send_multicast/send_broadcast cost one
//   datagram instead of an N-1 unicast fan-out. A dedicated receive
//   socket (bound to the fixed `kMcastPort` every station shares,
//   loopback delivery enabled) joins groups on subscribe() and receives
//   only the groups it joined; our own looped-back frames are dropped by
//   source match, and frames of other clusters on the host as unknown
//   peers. If the broadcast-group join fails at construction
//   the runtime falls back to unicast fan-out — exactly FLIP's documented
//   position that hardware multicast is an optimization over n
//   point-to-point messages (Section 3.2).
//
// Threading model / lock protocol:
//   - `mu_` serializes all protocol state: tasks_, timers_, and the tx
//     queue. Handlers (receive, timer, posted task) run on the loop
//     thread with mu_ held; user threads calling blocking primitives take
//     the same mutex and park on condition variables, which matches
//     Amoeba's blocking-primitives / multithreaded-application model
//     (Section 2).
//   - The station table (stations_, by_addr_, self_) is immutable after
//     start(): set_station_table throws if the loop is running, and every
//     I/O path reads it without mu_.
//   - Syscalls (sendmmsg/recvmmsg/poll) happen OUTSIDE mu_, so user
//     threads parked on blocking primitives never wait behind the kernel.
//     The one exception is deliberate: when tx_queue_ hits its
//     high-watermark, the enqueuing context flushes inline while still
//     holding mu_ — backpressure instead of unbounded memory
//     (`tx_queue_hwm_hits` counts these inline flushes). sendmmsg needs no
//     lock of its own: the syscall is the only shared state.
//   - The wake path is an eventfd (pipe fallback) with a pending-flag
//     suppressor: back-to-back posts cost one syscall, not one each
//     (`wakes_suppressed`), and wake-ups that find no work are counted
//     (`wake_spurious`).
//   - Every receive socket (the data socket, the mcast socket) gets a
//     4 MiB SO_RCVBUF, capped by net.core.rmem_max, so a full 128-message
//     history window of datagrams fits in the kernel while the loop is
//     busy.
//   - The loop thread never wakes itself. Every post/set_timer/enqueue_tx
//     it makes runs inside the locked dispatch block or the rx dispatch,
//     and after either the loop returns to the top, where it drains
//     tasks_, recomputes the poll timeout from timers_ and swaps tx_queue_
//     before it can poll again. wake() therefore returns at once on the
//     loop thread; only other threads (blocking callers, stop()) write
//     the wake fd.
//
// I/O batching: outbound frames queue (as views — no copies) and are
// flushed with one sendmmsg per batch, so a multicast fan-out of N frames
// or a pipeline of back-to-back sends costs one syscall, not N. Inbound,
// the loop polls, recvmmsg drains each readable socket into pooled
// receive buffers, and the whole batch is dispatched under a single mu_
// acquisition; each handler gets a zero-copy view of its datagram.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.hpp"
#include "transport/runtime.hpp"

namespace amoeba::transport {

/// I/O-path counters. Written by the loop thread (and whoever flushes),
/// read from anywhere: relaxed atomics, monotonic, never reset.
struct UdpIoStats {
  std::atomic<std::uint64_t> tx_datagrams{0};   // handed to the kernel
  std::atomic<std::uint64_t> tx_batches{0};     // sendmmsg calls that sent
  std::atomic<std::uint64_t> tx_eintr{0};       // sendmmsg EINTR retries
  std::atomic<std::uint64_t> tx_soft_errors{0};  // EAGAIN/ENOBUFS seen
  std::atomic<std::uint64_t> tx_pollouts{0};    // waits for writability
  std::atomic<std::uint64_t> tx_dropped{0};     // gave up on these frames
  std::atomic<std::uint64_t> rx_datagrams{0};
  std::atomic<std::uint64_t> rx_eintr{0};
  std::atomic<std::uint64_t> rx_truncated{0};   // frame bigger than a slot
  std::atomic<std::uint64_t> rx_unknown_peer{0};
  // --- kernel-multicast path ---------------------------------------------
  std::atomic<std::uint64_t> tx_mcast_datagrams{0};  // one-frame multicasts
  std::atomic<std::uint64_t> fanout_avoided{0};  // unicasts a kmcast saved
  std::atomic<std::uint64_t> rx_mcast_datagrams{0};  // via the mcast socket
  std::atomic<std::uint64_t> rx_self_dropped{0};  // own looped-back frames
  std::atomic<std::uint64_t> mcast_join_failures{0};
  // --- wake path -----------------------------------------------------------
  std::atomic<std::uint64_t> wakeups{0};           // wake writes issued
  std::atomic<std::uint64_t> wakes_suppressed{0};  // a wake was in flight
  std::atomic<std::uint64_t> wake_spurious{0};     // woke to no work
  // --- bounded tx queue ----------------------------------------------------
  std::atomic<std::uint64_t> tx_queue_hwm_hits{0};  // inline flushes
};

/// The UDP port every station's multicast receive socket binds. It is
/// fixed, not configurable, so stations built with default options always
/// hear each other's group datagrams.
inline constexpr std::uint16_t kMcastPort = 26370;

/// Construction-time knobs for the real-socket runtime. Defaults are the
/// classic single-socket fan-out configuration used by the paper tables.
struct UdpOptions {
  /// Bind a UDP socket on 127.0.0.1:`port` (port 0 = ephemeral).
  std::uint16_t port = 0;
  /// Greatest FLIP-frame payload one datagram carries. Validated at
  /// construction against the bound interface's MTU (loopback: 65536).
  std::size_t max_payload = 1400;
  /// High-watermark on the outbound frame queue. At the limit the
  /// enqueuing context flushes inline (backpressure) instead of growing
  /// the queue without bound while a peer stalls the flusher.
  std::size_t tx_queue_hwm = 8192;
  /// Map mcast_keys onto kernel IP multicast groups (on kMcastPort).
  bool kernel_multicast = false;
  /// Interface address used for multicast membership and egress. The
  /// default is the loopback interface (single-host benches); a bad
  /// address makes every join fail, which exercises the fan-out fallback.
  std::string mcast_ifaddr = "127.0.0.1";

  /// Validate and clamp, mirroring GroupConfig::normalize: nonsense is a
  /// typed Status::bad_config, over-small bounds clamp to sane floors.
  Status normalize();
};

class UdpRuntime final : public Executor, public Device {
 public:
  /// Bind a UDP socket on 127.0.0.1:`port` (port 0 = ephemeral).
  explicit UdpRuntime(std::uint16_t port = 0);
  /// Full-options construction. Throws std::invalid_argument on a
  /// configuration normalize() rejects, std::runtime_error on I/O setup
  /// failure.
  explicit UdpRuntime(const UdpOptions& options);
  ~UdpRuntime() override;
  UdpRuntime(const UdpRuntime&) = delete;
  UdpRuntime& operator=(const UdpRuntime&) = delete;

  /// Locally bound UDP port (useful with port 0).
  std::uint16_t local_port() const { return local_port_; }
  /// Bound multicast receive port (0 when kernel multicast is inactive).
  std::uint16_t mcast_port() const { return mcast_port_; }
  /// True when the kernel-multicast path is up (requested AND the
  /// broadcast-group join succeeded); false means fan-out fallback.
  bool kernel_multicast_active() const { return mcast_active_; }
  /// Effective (normalized) construction options.
  const UdpOptions& options() const { return opts_; }

  /// Declare the full station table. Entry `self_station` must match this
  /// process's own endpoint; frames to it short-circuit locally.
  /// Must be called before start(): the table is immutable while the loop
  /// runs (throws std::logic_error otherwise).
  void set_station_table(StationId self_station,
                         const std::vector<std::pair<std::string, std::uint16_t>>&
                             endpoints);

  /// Start / stop the loop thread.
  void start();
  void stop();

  /// The runtime mutex. Blocking user-level wrappers hold it around state
  /// machine calls and park on condition variables tied to it.
  std::mutex& mutex() { return mu_; }

  /// Transport-level fault/recovery observability.
  const UdpIoStats& io_stats() const { return io_stats_; }
  /// Datagrams the kernel dropped at this runtime's receive sockets (the
  /// data socket plus the mcast socket) because their buffers were full: the sum
  /// of SO_MEMINFO's SK_MEMINFO_DROPS, i.e. /proc/net/udp's `drops` column.
  /// Read from the kernel on each call; safe from any thread.
  std::uint64_t kernel_rx_drops() const;
  /// Effective SO_RCVBUF of the data socket as the kernel reports it (Linux
  /// reports twice the size requested). Safe from any thread.
  std::size_t rx_buffer_bytes() const;

  // --- Executor -----------------------------------------------------------
  Time now() const override;
  void post(Duration cpu_cost, std::function<void()> fn) override;
  void charge(Duration cpu_cost) override;
  TimerId set_timer(Duration delay, std::function<void()> fn) override;
  void cancel_timer(TimerId id) override;
  const sim::CostModel& costs() const override;

  // --- Device ---------------------------------------------------------------
  StationId station() const override { return self_; }
  std::size_t max_payload() const override { return opts_.max_payload; }
  Duration tx_cost() const override { return Duration::zero(); }
  void send_unicast(StationId dst, BufView payload,
                    std::size_t wire_bytes) override;
  void send_multicast(std::uint64_t mcast_key, BufView payload,
                      std::size_t wire_bytes) override;
  void send_broadcast(BufView payload, std::size_t wire_bytes) override;
  void subscribe(std::uint64_t mcast_key) override;
  void unsubscribe(std::uint64_t mcast_key) override;
  void set_promiscuous(bool) override {}  // fan-out delivers everything
  void set_receive_handler(
      std::function<void(StationId, BufView)> fn) override;

 private:
  struct TimerEntry {
    Time at;
    TimerId id;
    std::function<void()> fn;
    bool operator>(const TimerEntry& o) const {
      if (at != o.at) return at > o.at;
      return id > o.id;
    }
  };

  // Station table entry / resolved datagram destination.
  struct Endpoint {
    std::uint32_t ip_be{0};
    std::uint16_t port_be{0};
  };

  /// One queued outbound datagram: resolved destination + a view of the
  /// frame bytes (shared with whoever else holds the backing — no copy on
  /// enqueue). `mcast` tags frames bound for a 239.192/16 group so the
  /// flush path can account them separately.
  struct PendingTx {
    Endpoint to;
    BufView payload;
    bool mcast{false};
  };

  void init(const UdpOptions& options);
  void setup_multicast();
  void loop();
  void wake();
  /// Drain + disarm the wake fd. Called by the loop thread only.
  void drain_wake_fd();
  /// Queue one frame for the next flush; applies the high-watermark
  /// backpressure policy. Caller holds mu_.
  void enqueue_tx(Endpoint to, BufView payload, bool mcast);
  /// Send a swapped-out batch with sendmmsg. Called without mu_ on the
  /// normal path, WITH mu_ on the backpressure path.
  void flush_tx(std::vector<PendingTx>& batch);
  /// Classify a received datagram's source endpoint; returns false (and
  /// counts) for unknown peers and our own looped-back multicasts.
  bool classify_source(std::uint32_t ip_be, std::uint16_t port_be,
                       StationId* src);
  /// recvmmsg-drain one readable socket, appending (station, datagram
  /// view) per accepted frame to `out`.
  void drain_socket_mmsg(int fd, bool is_mcast, std::vector<SharedBuffer>& slots,
                         std::vector<std::pair<StationId, BufView>>& out);
  /// 239.192/16 group address for a subscription key.
  static std::uint32_t group_ip_be(std::uint64_t mcast_key);

  UdpOptions opts_;
  /// The data socket: every unicast datagram in and out, and every
  /// kernel-multicast datagram out.
  int fd_{-1};
  int mcast_fd_{-1};
  int wake_rd_{-1};
  int wake_wr_{-1};
  bool wake_is_eventfd_{false};
  std::atomic<bool> wake_pending_{false};
  std::uint16_t local_port_{0};
  std::uint16_t mcast_port_{0};
  bool mcast_active_{false};
  StationId self_{kBroadcastStation};
  std::size_t rx_slot_bytes_{2048};

  std::mutex mu_;
  std::thread loop_thread_;
  std::atomic<bool> running_{false};

  // Station table; index = station id. Stored as resolved sockaddr blobs.
  // Immutable after start() — read lock-free by the I/O paths.
  std::vector<Endpoint> stations_;
  std::map<std::pair<std::uint32_t, std::uint16_t>, StationId> by_addr_;

  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timers_;
  /// Ids of timers still in timers_ (fired/purged entries are erased, so a
  /// late cancel of a fired timer is a no-op instead of a leak).
  std::unordered_set<TimerId> pending_timers_;
  /// Ids cancelled while still pending; purged when they reach the head of
  /// timers_. Bounded by the number of live entries in timers_.
  std::unordered_set<TimerId> cancelled_timers_;
  TimerId next_timer_{1};
  std::queue<std::function<void()>> tasks_;

  std::vector<PendingTx> tx_queue_;

  /// Joined multicast groups: folded group ip -> subscribe refcount
  /// (distinct keys may fold onto one address; over-delivery is filtered
  /// by FLIP's address match). Guarded by mcast_mu_ — NOT mu_ — so
  /// subscribe()/unsubscribe() are safe from any thread, with or without
  /// the runtime mutex held.
  std::mutex mcast_mu_;
  std::unordered_map<std::uint32_t, int> mcast_refs_;
  /// Parsed opts_.mcast_ifaddr (network byte order), 0 until setup.
  std::uint32_t mcast_if_be_{0};

  std::function<void(StationId, BufView)> rx_;
  Time epoch_{};
  UdpIoStats io_stats_;
};

}  // namespace amoeba::transport
