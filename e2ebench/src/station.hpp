// Three stations of the real stack in one process, and the load they run.
//
// Each station is a UdpRuntime on 127.0.0.1 with a FlipStack and either a
// GroupMember (driven from callbacks on its own loop thread) or, for the
// delay workload's client, a BlockingGroup driven by an application
// thread. Every station runs the default UdpOptions and GroupConfig; the
// benchmark sets no protocol knobs of its own. Station 0 creates the
// group, stations 1 and 2 join it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "group/blocking.hpp"
#include "group/member.hpp"
#include "histogram.hpp"
#include "payload.hpp"
#include "spans.hpp"
#include "transport/udp_runtime.hpp"

namespace e2e {

inline constexpr int kStations = 3;

enum class WorkloadKind { delay_pb_64b, saturate_pb_1k, stream_bb_8k };

struct Workload {
  WorkloadKind kind;
  const char* name;
  std::size_t payload_bytes;
  /// Above GroupConfig's default bb_threshold: the message goes BB.
  bool broadcast_method;
};
const Workload* find_workload(const std::string& name);

/// Offered rate of the open-loop stream_bb_8k generator (all stations).
inline constexpr double kStreamRatePerSec = 500.0;
/// A send slower than this waited on a protocol retry timer: it is above
/// every scheduler stall seen on loopback and below the 100 ms send retry.
inline constexpr std::int64_t kSlowSendNs = 50'000'000;

enum class Phase : int { warmup, measure, drain };

/// Run-wide state every station reads.
struct RunShared {
  const Workload* workload{nullptr};
  /// Seeded payload bytes, one template per sending station.
  std::array<amoeba::Buffer, kStations> templates;
  std::atomic<Phase> phase{Phase::warmup};
  /// The timed window is cut into `slices` equal slices; a latency sample
  /// belongs to the slice its send was due in. Set before the window opens.
  std::atomic<std::int64_t> window_start_ns{0};
  std::int64_t slice_ns{1};
  std::size_t slices{1};
  Tracer* tracer{nullptr};

  RunShared(const Workload& w, std::uint64_t seed, double window_seconds);
  amoeba::Buffer make_payload(const Stamp& s) const;
  std::size_t slice_of(std::int64_t sent_ns) const;
};

/// Length of one slice of the timed window (fewer, longer slices when the
/// window is short). Long enough that the p99 of stream_bb_8k's 500 msg/s
/// has ten samples above it in every slice.
inline constexpr double kSliceSeconds = 2.0;

/// Delivery check for one station's stream, in fixed memory: per-sender
/// FIFO with no gap or duplicate (the stamp's index must be the next one
/// expected from that sender), intact payload bytes, and a rolling hash
/// of the (sender, sender_msg_id) sequence that must end equal at every
/// station, with every station's count equal to the sends issued.
class StreamCheck {
 public:
  /// The message's stamp, or nullopt when it is malformed (a violation).
  std::optional<Stamp> on_app(const amoeba::group::GroupMessage& m,
                              const RunShared& sh);
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t hash() const { return hash_; }
  std::uint64_t violations() const { return violations_; }

 private:
  std::array<std::uint32_t, kStations> next_index_{};
  std::uint64_t delivered_{0};
  std::uint64_t hash_{0xcbf29ce484222325ULL};
  std::uint64_t violations_{0};
};

/// Send/latency accounting a station keeps for its own messages.
struct SendTally {
  std::atomic<std::uint64_t> issued{0};
  std::atomic<std::uint64_t> finished{0};  // completions, ok or not
  std::atomic<std::uint64_t> window_attempted{0};
  std::atomic<std::uint64_t> window_ok{0};
  std::atomic<std::uint64_t> window_slow{0};  // > kSlowSendNs or failed
  std::atomic<std::uint64_t> failed{0};       // non-ok Status, any phase
};

class Station {
 public:
  Station(int index, RunShared& sh, bool blocking_client);
  ~Station();
  Station(const Station&) = delete;
  Station& operator=(const Station&) = delete;

  std::uint16_t port() const { return rt_->local_port(); }
  void start(const std::vector<std::pair<std::string, std::uint16_t>>& table);
  void stop() { rt_->stop(); }

  amoeba::Status create(amoeba::flip::Address group);
  amoeba::Status join(amoeba::flip::Address group);

  /// Issue one send (GroupMember stations). Caller holds mutex().
  /// `sent_ns` is the call time, or the scheduled time in an open loop.
  void issue(std::int64_t sent_ns);
  /// The delay workload's application thread: blocking send, then receive
  /// until the own message comes back, until the phase turns to drain.
  void client_loop();

  std::mutex& mutex() { return rt_->mutex(); }
  amoeba::transport::UdpRuntime& runtime() { return *rt_; }
  const amoeba::flip::FlipStack& flip() const { return *flip_; }
  const amoeba::group::GroupStats& group_stats() const;

  // Read under mutex() while running, freely once stopped.
  const StreamCheck& check() const { return check_; }
  const Histogram& latency() const { return latency_; }
  const std::vector<Histogram>& slice_latency() const { return slice_latency_; }
  const SendTally& tally() const { return tally_; }
  /// Faults the group reported to this station, and client-side errors.
  std::uint64_t errors() const { return errors_.load(); }

 private:
  void on_complete(std::uint32_t index, std::int64_t call_ns, bool in_window,
                   amoeba::Status s);
  void on_deliver(const amoeba::group::GroupMessage& m);
  void note_own_delivery(const Stamp& s);

  const int index_;
  RunShared& sh_;
  // Declaration order is construction order; the destructor stops the
  // runtime first, so no callback runs while the rest is torn down.
  std::unique_ptr<amoeba::transport::UdpRuntime> rt_;
  // Traced runs only: interposers on the Device and Executor seams.
  std::unique_ptr<TimingDevice> timing_;
  std::unique_ptr<TimingExecutor> flip_exec_;
  std::unique_ptr<TimingExecutor> group_exec_;
  std::unique_ptr<amoeba::flip::FlipStack> flip_;
  std::unique_ptr<amoeba::group::BlockingGroup> blocking_;
  std::unique_ptr<amoeba::group::GroupMember> member_;

  std::uint32_t next_index_{0};
  StreamCheck check_;
  Histogram latency_;
  std::vector<Histogram> slice_latency_;
  SendTally tally_;
  std::atomic<std::uint64_t> errors_{0};
  /// Completion time by send index (mod ring): the start of the
  /// accept_to_deliver span.
  std::array<std::int64_t, 4096> accept_ns_{};
};

/// Three stations with the group formed.
class Cluster {
 public:
  /// Builds the stations (with timing interposers when `sh.tracer` is set)
  /// and forms the group; throws std::runtime_error if that fails.
  explicit Cluster(RunShared& sh);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// First UdpRuntime constructed -> last join_group completed.
  double setup_s() const { return setup_s_; }
  Station& operator[](int i) { return *stations_[static_cast<std::size_t>(i)]; }
  std::vector<std::uint16_t> ports() const;
  void stop();

 private:
  std::array<std::unique_ptr<Station>, kStations> stations_;
  double setup_s_{0};
};

}  // namespace e2e
