#include "station.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <random>
#include <stdexcept>

namespace e2e {

namespace amo = amoeba;
using amo::Status;

namespace {

constexpr std::array<Workload, 3> kWorkloads = {{
    {WorkloadKind::delay_pb_64b, "delay_pb_64b", 64, false},
    {WorkloadKind::saturate_pb_1k, "saturate_pb_1k", 1024, false},
    {WorkloadKind::stream_bb_8k, "stream_bb_8k", 8192, true},
}};

constexpr auto kSetupTimeout = std::chrono::seconds(10);
constexpr std::size_t kAcceptRingMask = 4096 - 1;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

RunShared::RunShared(const Workload& w, std::uint64_t seed, double window_seconds)
    : workload(&w),
      slices(std::max<std::size_t>(1, static_cast<std::size_t>(window_seconds / kSliceSeconds))) {
  slice_ns = static_cast<std::int64_t>(window_seconds * 1e9 / static_cast<double>(slices));
  for (int s = 0; s < kStations; ++s) {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(s));
    amo::Buffer& t = templates[static_cast<std::size_t>(s)];
    t.resize(w.payload_bytes);
    for (auto& b : t) b = static_cast<std::uint8_t>(rng());
  }
}

std::size_t RunShared::slice_of(std::int64_t sent_ns) const {
  const std::int64_t k = (sent_ns - window_start_ns.load()) / slice_ns;
  return static_cast<std::size_t>(std::clamp<std::int64_t>(k, 0, static_cast<std::int64_t>(slices) - 1));
}

amo::Buffer RunShared::make_payload(const Stamp& s) const {
  amo::Buffer b = templates[s.station];
  write_stamp(b.data(), s);
  return b;
}

std::optional<Stamp> StreamCheck::on_app(const amo::group::GroupMessage& m,
                                         const RunShared& sh) {
  const auto stamp = read_stamp(m.data.span());
  const std::size_t n = sh.workload->payload_bytes;
  if (!stamp.has_value() || stamp->station >= kStations || m.data.size() != n) {
    ++violations_;
    return std::nullopt;
  }
  const amo::Buffer& t = sh.templates[stamp->station];
  if (std::memcmp(m.data.data() + kStampBytes, t.data() + kStampBytes,
                  n - kStampBytes) != 0) {
    ++violations_;  // corrupted payload
  }
  std::uint32_t& expect = next_index_[stamp->station];
  if (stamp->index != expect) {
    ++violations_;  // duplicate (index < expect), gap or reorder (index > expect)
  }
  if (stamp->index >= expect) expect = stamp->index + 1;
  ++delivered_;
  hash_ = mix(mix(mix(hash_, m.sender), m.sender_msg_id),
              std::uint64_t{stamp->station} << 32 | stamp->index);
  return stamp;
}

Station::Station(int index, RunShared& sh, bool blocking_client)
    : index_(index), sh_(sh), slice_latency_(sh.slices) {
  rt_ = std::make_unique<amo::transport::UdpRuntime>(amo::transport::UdpOptions{});
  amo::transport::Device* dev = rt_.get();
  amo::transport::Executor* flip_exec = rt_.get();
  amo::transport::Executor* group_exec = rt_.get();
  if (sh_.tracer != nullptr) {
    timing_ = std::make_unique<TimingDevice>(*rt_, *sh_.tracer);
    flip_exec_ = std::make_unique<TimingExecutor>(*rt_, *sh_.tracer, SpanName::flip_task);
    group_exec_ = std::make_unique<TimingExecutor>(*rt_, *sh_.tracer, SpanName::group_task);
    dev = timing_.get();
    flip_exec = flip_exec_.get();
    group_exec = group_exec_.get();
  }
  flip_ = std::make_unique<amo::flip::FlipStack>(*flip_exec, *dev);
  const amo::flip::Address me =
      amo::flip::process_address(static_cast<std::uint64_t>(index) + 1);
  if (blocking_client) {
    // BlockingGroup hands the runtime itself to its member, so this
    // station's group tasks run outside any span.
    blocking_ = std::make_unique<amo::group::BlockingGroup>(
        *rt_, *flip_, me, amo::group::GroupConfig{});
  } else {
    member_ = std::make_unique<amo::group::GroupMember>(
        *flip_, *group_exec, me, amo::group::GroupConfig{},
        amo::group::GroupMember::Callbacks{
            .on_message = [this](const amo::group::GroupMessage& m) { on_deliver(m); },
            .on_view = nullptr,
            .on_fault = [this](Status) { ++errors_; },
        });
  }
}

Station::~Station() { rt_->stop(); }

void Station::start(
    const std::vector<std::pair<std::string, std::uint16_t>>& table) {
  rt_->set_station_table(static_cast<amo::transport::StationId>(index_), table);
  rt_->start();
}

const amo::group::GroupStats& Station::group_stats() const {
  return blocking_ ? blocking_->member().stats() : member_->stats();
}

namespace {

/// Run one asynchronous GroupMember call to completion from a harness
/// thread, under the runtime mutex as the member requires.
Status call_sync(
    std::mutex& mu,
    const std::function<void(amo::group::GroupMember::StatusCb)>& start) {
  std::unique_lock lock(mu);
  std::condition_variable cv;
  std::optional<Status> result;
  start([&](Status s) {
    result = s;
    cv.notify_all();
  });
  if (!cv.wait_for(lock, kSetupTimeout, [&] { return result.has_value(); })) {
    return Status::timeout;
  }
  return *result;
}

}  // namespace

Status Station::create(amo::flip::Address group) {
  if (blocking_) return blocking_->create_group(group);
  return call_sync(mutex(), [&](auto cb) { member_->create_group(group, std::move(cb)); });
}

Status Station::join(amo::flip::Address group) {
  if (blocking_) return blocking_->join_group(group);
  return call_sync(mutex(), [&](auto cb) { member_->join_group(group, std::move(cb)); });
}

void Station::issue(std::int64_t sent_ns) {
  const bool in_window = sh_.phase.load() == Phase::measure;
  const std::uint32_t idx = next_index_++;
  ++tally_.issued;
  if (in_window) ++tally_.window_attempted;
  amo::Buffer payload = sh_.make_payload(Stamp{.station = static_cast<std::uint16_t>(index_),
                                               .in_window = in_window,
                                               .index = idx,
                                               .sent_ns = sent_ns});
  const std::int64_t call_ns = now_ns();
  Tracer::Scope span(sh_.tracer, SpanName::send_call,
                     msg_id(static_cast<std::uint32_t>(index_), idx));
  member_->send_to_group(std::move(payload), [this, idx, call_ns, in_window](Status s) {
    on_complete(idx, call_ns, in_window, s);
  });
}

void Station::on_complete(std::uint32_t index, std::int64_t call_ns,
                          bool in_window, Status s) {
  const std::int64_t now = now_ns();
  if (sh_.tracer != nullptr) {
    sh_.tracer->record(SpanName::send_to_accept, call_ns, now,
                       msg_id(static_cast<std::uint32_t>(index_), index));
  }
  accept_ns_[index & kAcceptRingMask] = now;
  ++tally_.finished;
  if (s == Status::ok) {
    if (in_window) ++tally_.window_ok;
  } else {
    ++tally_.failed;
    if (in_window) ++tally_.window_slow;
  }
  // saturate_pb_1k: each station keeps one send outstanding, issuing the
  // next from the completion of the last, on its own loop thread.
  if (sh_.workload->kind == WorkloadKind::saturate_pb_1k &&
      sh_.phase.load() != Phase::drain) {
    issue(now_ns());
  }
}

void Station::on_deliver(const amo::group::GroupMessage& m) {
  if (m.kind != amo::group::MessageKind::app) return;
  Tracer::Scope span(sh_.tracer, SpanName::app_deliver);
  const auto stamp = check_.on_app(m, sh_);
  if (stamp.has_value() && stamp->station == index_) note_own_delivery(*stamp);
}

void Station::note_own_delivery(const Stamp& s) {
  const std::int64_t now = now_ns();
  if (sh_.tracer != nullptr) {
    sh_.tracer->record(SpanName::accept_to_deliver,
                       accept_ns_[s.index & kAcceptRingMask], now,
                       msg_id(static_cast<std::uint32_t>(index_), s.index));
  }
  if (!s.in_window) return;
  const std::int64_t latency = now - s.sent_ns;
  latency_.record(static_cast<std::uint64_t>(latency));
  slice_latency_[sh_.slice_of(s.sent_ns)].record(static_cast<std::uint64_t>(latency));
  if (latency > kSlowSendNs) ++tally_.window_slow;
}

void Station::client_loop() {
  while (sh_.phase.load() != Phase::drain) {
    const bool in_window = sh_.phase.load() == Phase::measure;
    const std::uint32_t idx = next_index_++;
    ++tally_.issued;
    if (in_window) ++tally_.window_attempted;
    const std::int64_t call_ns = now_ns();
    const Status s = blocking_->send_to_group(
        sh_.make_payload(Stamp{.station = static_cast<std::uint16_t>(index_),
                               .in_window = in_window,
                               .index = idx,
                               .sent_ns = call_ns}));
    on_complete(idx, call_ns, in_window, s);
    if (s != Status::ok) continue;
    // Receive until our own message comes back in the total order.
    while (true) {
      auto r = blocking_->receive_from_group(amo::Duration::seconds(5));
      if (!r.ok()) {
        ++errors_;
        return;
      }
      if (r->kind != amo::group::MessageKind::app) continue;
      Tracer::Scope span(sh_.tracer, SpanName::app_deliver,
                         msg_id(static_cast<std::uint32_t>(index_), idx));
      const auto stamp = check_.on_app(*r, sh_);
      if (stamp.has_value() && stamp->station == index_) {
        note_own_delivery(*stamp);
        if (stamp->index == idx) break;
      }
    }
  }
}

Cluster::Cluster(RunShared& sh) {
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kStations; ++i) {
    const bool client = sh.workload->kind == WorkloadKind::delay_pb_64b && i == 1;
    stations_[static_cast<std::size_t>(i)] = std::make_unique<Station>(i, sh, client);
  }
  std::vector<std::pair<std::string, std::uint16_t>> table;
  for (auto& s : stations_) table.emplace_back("127.0.0.1", s->port());
  for (auto& s : stations_) s->start(table);
  const amo::flip::Address group = amo::flip::group_address(0xE2E);
  if ((*this)[0].create(group) != Status::ok || (*this)[1].join(group) != Status::ok ||
      (*this)[2].join(group) != Status::ok) {
    throw std::runtime_error("could not form the group");
  }
  setup_s_ = static_cast<double>(now_ns() - t0) / 1e9;
}

Cluster::~Cluster() { stop(); }

void Cluster::stop() {
  for (auto& s : stations_) s->stop();
}

std::vector<std::uint16_t> Cluster::ports() const {
  std::vector<std::uint16_t> out;
  for (const auto& s : stations_) out.push_back(s->port());
  return out;
}

}  // namespace e2e
