#include "spans.hpp"

#include <sys/socket.h>

#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <istream>
#include <ostream>
#include <sstream>

#include "flip/packet.hpp"
#include "group/message.hpp"
#include "payload.hpp"

namespace e2e {

namespace {

constexpr std::array<const char*, kSpanNames> kNames = {
    "send_call",    "group_task",   "flip_task",   "rx_frame",
    "device_send",  "syscall_send", "syscall_recv", "app_deliver",
    "send_to_accept", "accept_to_deliver",
};
constexpr int kMaxDepth = 16;
std::atomic<std::uint64_t> g_generation{0};
std::atomic<Tracer*> g_syscall_tracer{nullptr};

}  // namespace

const char* span_name(SpanName n) {
  return kNames[static_cast<std::size_t>(n)];
}

bool span_from_name(const std::string& s, SpanName* out) {
  for (std::size_t i = 0; i < kSpanNames; ++i) {
    if (s == kNames[i]) {
      *out = static_cast<SpanName>(i);
      return true;
    }
  }
  return false;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Tracer::ThreadLog {
  struct Frame {
    std::uint64_t id{0};
    std::uint64_t msg{0};
    SpanName name{SpanName::send_call};
    std::int64_t start{0};
    std::int64_t cpu_start{0};
    std::int64_t child_cpu{0};
    std::int64_t children{0};
  };
  std::uint32_t thread{0};
  std::array<Frame, kMaxDepth> stack{};
  int depth{0};
  std::array<SpanTotals, kSpanNames> totals{};
  std::vector<Span> kept;
};

Tracer::Tracer(std::size_t keep_per_thread)
    : generation_(g_generation.fetch_add(1) + 1),
      keep_per_thread_(keep_per_thread) {}

Tracer::~Tracer() = default;

void Tracer::calibrate() {
  constexpr int kRounds = 2001;
  Tracer scratch(2 * kRounds);
  scratch.set_enabled(true);
  for (int i = 0; i < kRounds; ++i) {
    Scope outer(&scratch, SpanName::rx_frame);
    Scope inner(&scratch, SpanName::device_send);
  }
  std::vector<std::int64_t> leaf, parent;
  for (const Span& s : scratch.kept()) {
    (s.name == SpanName::device_send ? leaf : parent).push_back(s.self_cpu_ns);
  }
  const auto median = [](std::vector<std::int64_t>& v) {
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
    return v[v.size() / 2];
  };
  leaf_overhead_ns_ = median(leaf);
  child_overhead_ns_ = std::max<std::int64_t>(0, median(parent) - leaf_overhead_ns_);
}

Tracer::ThreadLog& Tracer::log() {
  thread_local std::uint64_t cached_generation = 0;
  thread_local ThreadLog* cached = nullptr;
  if (cached_generation != generation_) {
    std::lock_guard lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    cached = logs_.back().get();
    cached->thread = static_cast<std::uint32_t>(logs_.size() - 1);
    cached->kept.reserve(keep_per_thread_);
    cached_generation = generation_;
  }
  return *cached;
}

void Tracer::keep(ThreadLog& l, const Span& s) {
  if (l.kept.size() < keep_per_thread_) l.kept.push_back(s);
}

Tracer::Scope::Scope(Tracer* t, SpanName name, std::uint64_t msg) : t_(t) {
  if (t_ == nullptr || !t_->enabled()) {
    t_ = nullptr;
    return;
  }
  ThreadLog& l = t_->log();
  if (l.depth == kMaxDepth) {  // deeper than any call chain of the stack
    t_ = nullptr;
    return;
  }
  ThreadLog::Frame& f = l.stack[static_cast<std::size_t>(l.depth)];
  f.id = t_->next_id_.fetch_add(1, std::memory_order_relaxed);
  f.msg = msg != 0 ? msg
                   : (l.depth > 0
                          ? l.stack[static_cast<std::size_t>(l.depth - 1)].msg
                          : 0);
  f.name = name;
  f.child_cpu = 0;
  f.children = 0;
  ++l.depth;
  f.start = now_ns();
  f.cpu_start = thread_cpu_now_ns();
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  const std::int64_t cpu_end = thread_cpu_now_ns();
  const std::int64_t end = now_ns();
  ThreadLog& l = t_->log();
  const ThreadLog::Frame f = l.stack[static_cast<std::size_t>(--l.depth)];
  const std::int64_t cpu = cpu_end - f.cpu_start;
  const std::int64_t self_cpu = cpu - f.child_cpu - t_->leaf_overhead_ns_ -
                                f.children * t_->child_overhead_ns_;
  SpanTotals& tot = l.totals[static_cast<std::size_t>(f.name)];
  ++tot.count;
  tot.wall_ns += end - f.start;
  tot.self_cpu_ns += self_cpu;
  std::uint64_t parent = 0;
  if (l.depth > 0) {
    ThreadLog::Frame& up = l.stack[static_cast<std::size_t>(l.depth - 1)];
    up.child_cpu += cpu;
    ++up.children;
    parent = up.id;
  }
  t_->keep(l, Span{.id = f.id,
                   .parent = parent,
                   .name = f.name,
                   .thread = l.thread,
                   .start_ns = f.start,
                   .end_ns = end,
                   .self_cpu_ns = self_cpu,
                   .msg = f.msg});
}

std::uint64_t Tracer::current_msg() {
  if (!enabled()) return 0;
  ThreadLog& l = log();
  return l.depth > 0 ? l.stack[static_cast<std::size_t>(l.depth - 1)].msg : 0;
}

void Tracer::record(SpanName name, std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t msg) {
  if (!enabled()) return;
  ThreadLog& l = log();
  SpanTotals& tot = l.totals[static_cast<std::size_t>(name)];
  ++tot.count;
  tot.wall_ns += end_ns - start_ns;
  keep(l, Span{.id = next_id_.fetch_add(1, std::memory_order_relaxed),
               .parent = 0,
               .name = name,
               .thread = l.thread,
               .start_ns = start_ns,
               .end_ns = end_ns,
               .self_cpu_ns = 0,
               .msg = msg});
}

std::vector<SpanTotals> Tracer::totals() const {
  std::lock_guard lock(mu_);
  std::vector<SpanTotals> out(kSpanNames);
  for (const auto& l : logs_) {
    for (std::size_t i = 0; i < kSpanNames; ++i) {
      out[i].count += l->totals[i].count;
      out[i].wall_ns += l->totals[i].wall_ns;
      out[i].self_cpu_ns += l->totals[i].self_cpu_ns;
    }
  }
  return out;
}

std::vector<Span> Tracer::kept() const {
  std::lock_guard lock(mu_);
  std::vector<Span> out;
  for (const auto& l : logs_) out.insert(out.end(), l->kept.begin(), l->kept.end());
  return out;
}

void write_spans(std::ostream& os, const std::vector<Span>& spans) {
  os << "# e2ebench spans v1: id parent name thread start_ns end_ns "
        "self_cpu_ns msg\n";
  for (const Span& s : spans) {
    os << s.id << '\t' << s.parent << '\t' << span_name(s.name) << '\t'
       << s.thread << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
       << s.self_cpu_ns << '\t' << s.msg << '\n';
  }
}

bool read_spans(std::istream& is, std::vector<Span>* out) {
  std::string line;
  if (!std::getline(is, line) || line.rfind("# e2ebench spans v1", 0) != 0) {
    return false;
  }
  while (std::getline(is, line)) {
    std::istringstream fields(line);
    Span s;
    std::string name;
    if (!(fields >> s.id >> s.parent >> name >> s.thread >> s.start_ns >>
          s.end_ns >> s.self_cpu_ns >> s.msg) ||
        !span_from_name(name, &s.name) || s.end_ns < s.start_ns) {
      return false;
    }
    std::string extra;
    if (fields >> extra) return false;
    out->push_back(s);
  }
  return true;
}

std::uint64_t frame_msg_id(const amoeba::BufView& frame) {
  namespace group = amoeba::group;
  auto pkt = amoeba::flip::decode_packet(frame);
  if (!pkt.has_value()) return 0;
  const amoeba::flip::PacketHeader& h = pkt->header;
  const std::uint64_t flip_key =
      (std::uint64_t{1} << 63) | (h.src.id & 0x7FFFFFFF) << 32 | h.msg_id;
  if (h.frag_offset != 0 || h.total_len != pkt->fragment.size()) {
    return flip_key;
  }
  const auto m = group::decode_wire(std::move(pkt->fragment));
  if (!m.has_value()) return flip_key;
  amoeba::BufView data;
  switch (m->type) {
    case group::WireType::data_pb:
    case group::WireType::data_bb:
    case group::WireType::seq_data:
    case group::WireType::retransmit:
      data = m->payload;
      break;
    case group::WireType::seq_packed: {
      std::vector<group::AcceptRec> accepts;
      std::vector<group::PackedEntry> entries;
      if (group::decode_packed_payload(*m, accepts, entries) &&
          !entries.empty()) {
        data = entries.front().payload;
      }
      break;
    }
    default:
      break;
  }
  const auto stamp = read_stamp(data.span());
  return stamp.has_value() ? msg_id(stamp->station, stamp->index) : flip_key;
}

void attach_syscall_tracer(Tracer* t) { g_syscall_tracer.store(t); }

TimingDevice::TimingDevice(amoeba::transport::Device& inner, Tracer& tracer)
    : inner_(inner), tracer_(tracer) {}

// Frames reach the device from FLIP's posted per-packet tasks, so a send
// span has no enclosing span to inherit an id from: decode it, before the
// span starts so the decode is not charged to the transport.
void TimingDevice::send_unicast(amoeba::transport::StationId dst,
                                amoeba::BufView payload,
                                std::size_t wire_bytes) {
  const std::uint64_t id = tracer_.enabled() ? frame_msg_id(payload) : 0;
  Tracer::Scope span(&tracer_, SpanName::device_send, id);
  inner_.send_unicast(dst, std::move(payload), wire_bytes);
}

void TimingDevice::send_multicast(std::uint64_t mcast_key,
                                  amoeba::BufView payload,
                                  std::size_t wire_bytes) {
  const std::uint64_t id = tracer_.enabled() ? frame_msg_id(payload) : 0;
  Tracer::Scope span(&tracer_, SpanName::device_send, id);
  inner_.send_multicast(mcast_key, std::move(payload), wire_bytes);
}

void TimingDevice::send_broadcast(amoeba::BufView payload,
                                  std::size_t wire_bytes) {
  const std::uint64_t id = tracer_.enabled() ? frame_msg_id(payload) : 0;
  Tracer::Scope span(&tracer_, SpanName::device_send, id);
  inner_.send_broadcast(std::move(payload), wire_bytes);
}

void TimingDevice::set_receive_handler(
    std::function<void(amoeba::transport::StationId, amoeba::BufView)> fn) {
  inner_.set_receive_handler(
      [this, fn = std::move(fn)](amoeba::transport::StationId src,
                                 amoeba::BufView frame) {
        const std::uint64_t id = tracer_.enabled() ? frame_msg_id(frame) : 0;
        Tracer::Scope span(&tracer_, SpanName::rx_frame, id);
        fn(src, std::move(frame));
      });
}

TimingExecutor::TimingExecutor(amoeba::transport::Executor& inner,
                               Tracer& tracer, SpanName name)
    : inner_(inner), tracer_(tracer), name_(name) {}

std::function<void()> TimingExecutor::wrap(std::function<void()> fn) {
  if (!tracer_.enabled()) return fn;
  return [this, id = tracer_.current_msg(), fn = std::move(fn)] {
    Tracer::Scope span(&tracer_, name_, id);
    fn();
  };
}

void TimingExecutor::post(amoeba::Duration cpu_cost, std::function<void()> fn) {
  inner_.post(cpu_cost, wrap(std::move(fn)));
}

void TimingExecutor::post_idle(std::function<void()> fn) {
  inner_.post_idle(wrap(std::move(fn)));
}

amoeba::transport::TimerId TimingExecutor::set_timer(amoeba::Duration delay,
                                                     std::function<void()> fn) {
  return inner_.set_timer(delay, wrap(std::move(fn)));
}

}  // namespace e2e

extern "C" {
int __real_sendmmsg(int fd, mmsghdr* msgs, unsigned int n, int flags);
int __real_recvmmsg(int fd, mmsghdr* msgs, unsigned int n, int flags,
                    timespec* timeout);

int __wrap_sendmmsg(int fd, mmsghdr* msgs, unsigned int n, int flags) {
  e2e::Tracer::Scope span(e2e::g_syscall_tracer.load(std::memory_order_relaxed),
                          e2e::SpanName::syscall_send);
  return __real_sendmmsg(fd, msgs, n, flags);
}

int __wrap_recvmmsg(int fd, mmsghdr* msgs, unsigned int n, int flags,
                    timespec* timeout) {
  e2e::Tracer::Scope span(e2e::g_syscall_tracer.load(std::memory_order_relaxed),
                          e2e::SpanName::syscall_recv);
  return __real_recvmmsg(fd, msgs, n, flags, timeout);
}
}
