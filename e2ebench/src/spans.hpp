// Span recording for the traced run, from outside the library.
//
// The benchmark times calls into the public functions of each layer and
// the callbacks the layers make back into it; a `TimingDevice` sits on the
// Device seam between FlipStack and UdpRuntime (the seam FaultDevice uses)
// and times every frame handed down to the transport and every frame the
// transport hands up; a `TimingExecutor` on the Executor seam (the seam
// JitterExecutor uses) times the tasks and timers FLIP and the group layer
// post, which is where their work runs; and link-time wrappers time the
// runtime's sendmmsg and recvmmsg calls. Each span records its name, start, end, enclosing
// span and a message id; spans nested on one thread are parent and child.
//
// A span's self time is CPU time: the thread's CPU clock over the span
// minus its children's. Wall time would not do — on one CPU a thread is
// often preempted inside a span (a sendmmsg on loopback wakes the
// receiver), and its span would then cover the other thread's work. The
// CPU clock costs a system call per read; the tracer measures that cost
// once (calibrate) and takes it out of every span, so self times estimate
// the untraced cost and the reads show up only as tracing overhead.
//
// Spans are kept in memory (a bounded prefix per thread for the span file;
// per-name totals for all of them) and written out when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "transport/runtime.hpp"

namespace e2e {

enum class SpanName : std::uint8_t {
  send_call,          // harness -> GroupMember::send_to_group (CPU)
  group_task,         // runtime -> a group-layer task or timer (CPU)
  flip_task,          // runtime -> a FLIP task: packet decode, device send (CPU)
  rx_frame,           // transport -> FLIP receive handler upcall (CPU)
  device_send,        // FLIP -> UdpRuntime::send_* (CPU)
  syscall_send,       // UdpRuntime -> sendmmsg (CPU, mostly kernel)
  syscall_recv,       // UdpRuntime -> recvmmsg (CPU, mostly kernel)
  app_deliver,        // group -> harness delivery callback (CPU)
  send_to_accept,     // send call -> completion callback (waiting)
  accept_to_deliver,  // completion -> own message delivered (waiting)
};
inline constexpr std::size_t kSpanNames = 10;
const char* span_name(SpanName n);
/// Inverse of span_name; false for an unknown name.
bool span_from_name(const std::string& s, SpanName* out);

struct Span {
  std::uint64_t id{0};
  std::uint64_t parent{0};  // 0 = none
  SpanName name{SpanName::send_call};
  std::uint32_t thread{0};
  std::int64_t start_ns{0};  // wall clock (steady)
  std::int64_t end_ns{0};
  std::int64_t self_cpu_ns{0};  // 0 for spans that time waiting
  std::uint64_t msg{0};  // 0 = unknown
  bool operator==(const Span&) const = default;
};

/// Per-name aggregate over every span recorded (kept or not).
struct SpanTotals {
  std::uint64_t count{0};
  std::int64_t wall_ns{0};
  std::int64_t self_cpu_ns{0};
};

/// steady_clock in ns — the time base of spans and payload stamps.
std::int64_t now_ns();
/// CPU time the calling thread has used.
std::int64_t thread_cpu_now_ns();

/// Message id the benchmark's payloads carry: (station + 1) << 32 | index.
inline std::uint64_t msg_id(std::uint32_t station, std::uint32_t index) {
  return (std::uint64_t{station} + 1) << 32 | index;
}

class Tracer {
 public:
  /// `keep_per_thread` bounds the raw spans each thread keeps for the span
  /// file; totals cover every span.
  explicit Tracer(std::size_t keep_per_thread);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Measure what the CPU-clock reads add to a span (on the calling
  /// thread, with a scratch tracer) and subtract it from every span's self
  /// time from now on: `leaf` per span, `per_child` more per child span.
  void calibrate();
  std::int64_t leaf_overhead_ns() const { return leaf_overhead_ns_; }

  /// Recording is off until enabled (warm-up traffic is not traced).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Nested span on the calling thread. `msg` 0 inherits the enclosing
  /// span's message id.
  class Scope {
   public:
    Scope(Tracer* t, SpanName name, std::uint64_t msg = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

  /// Message id of the innermost open span on this thread (0 if none).
  std::uint64_t current_msg();

  /// A span that times waiting: an interval between two events, possibly
  /// on different threads, not nested on any thread's stack.
  void record(SpanName name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t msg);

  /// Call once every recording thread has stopped.
  std::vector<SpanTotals> totals() const;
  std::vector<Span> kept() const;

 private:
  struct ThreadLog;
  ThreadLog& log();
  void keep(ThreadLog& l, const Span& s);

  const std::uint64_t generation_;
  const std::size_t keep_per_thread_;
  std::int64_t leaf_overhead_ns_{0};
  std::int64_t child_overhead_ns_{0};
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;  // guards logs_ (registration, final reads)
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// Time the runtime's sendmmsg/recvmmsg calls into `t` (null stops it).
/// The benchmark binary is linked with --wrap for both symbols, so the
/// library's calls land in pass-through wrappers that open a span when a
/// tracer is attached and otherwise cost one load and a branch.
void attach_syscall_tracer(Tracer* t);

/// Span file: one header line, then one tab-separated line per span.
void write_spans(std::ostream& os, const std::vector<Span>& spans);
/// Parse a span file back; false on any malformed line.
bool read_spans(std::istream& is, std::vector<Span>* out);

/// Message id of a frame, found by decoding it with the public FLIP and
/// group codecs: the benchmark payload's (station, index) when the frame
/// holds a whole data message, otherwise a FLIP-level key shared by all
/// fragments of one FLIP message, 0 if the frame does not decode.
std::uint64_t frame_msg_id(const amoeba::BufView& frame);

/// Timing interposer on the Device seam: forwards everything to `inner`,
/// wrapping each send_* in a device_send span and each received frame in
/// an rx_frame span around the FLIP receive handler.
class TimingDevice final : public amoeba::transport::Device {
 public:
  TimingDevice(amoeba::transport::Device& inner, Tracer& tracer);

  amoeba::transport::StationId station() const override {
    return inner_.station();
  }
  std::size_t max_payload() const override { return inner_.max_payload(); }
  amoeba::Duration tx_cost() const override { return inner_.tx_cost(); }
  void send_unicast(amoeba::transport::StationId dst, amoeba::BufView payload,
                    std::size_t wire_bytes) override;
  void send_multicast(std::uint64_t mcast_key, amoeba::BufView payload,
                      std::size_t wire_bytes) override;
  void send_broadcast(amoeba::BufView payload,
                      std::size_t wire_bytes) override;
  void subscribe(std::uint64_t key) override { inner_.subscribe(key); }
  void unsubscribe(std::uint64_t key) override { inner_.unsubscribe(key); }
  void set_promiscuous(bool on) override { inner_.set_promiscuous(on); }
  void set_receive_handler(
      std::function<void(amoeba::transport::StationId, amoeba::BufView)> fn)
      override;

 private:
  amoeba::transport::Device& inner_;
  Tracer& tracer_;
};

/// Timing interposer on the Executor seam: forwards to `inner`, running
/// every posted task and timer inside a span named `name` that carries the
/// message id of the span that posted it.
class TimingExecutor final : public amoeba::transport::Executor {
 public:
  TimingExecutor(amoeba::transport::Executor& inner, Tracer& tracer,
                 SpanName name);

  amoeba::Time now() const override { return inner_.now(); }
  void post(amoeba::Duration cpu_cost, std::function<void()> fn) override;
  void post_idle(std::function<void()> fn) override;
  void charge(amoeba::Duration cpu_cost) override { inner_.charge(cpu_cost); }
  amoeba::transport::TimerId set_timer(amoeba::Duration delay,
                                       std::function<void()> fn) override;
  void cancel_timer(amoeba::transport::TimerId id) override {
    inner_.cancel_timer(id);
  }
  const amoeba::sim::CostModel& costs() const override {
    return inner_.costs();
  }

 private:
  std::function<void()> wrap(std::function<void()> fn);

  amoeba::transport::Executor& inner_;
  Tracer& tracer_;
  const SpanName name_;
};

}  // namespace e2e
