// Shared experiment harness for the paper-reproduction benches.
//
// Implements the paper's two measurement patterns (Section 4):
//   - delay: one process loops SendToGroup; we measure from the call to
//     the user-level receipt of the sender's own message, i.e. the full
//     SendToGroup/ReceiveFromGroup pair of Figure 2. "Each measurement was
//     done 10,000 times on an almost quiet network" — we default to fewer
//     iterations (the simulator is deterministic; the variance is tiny).
//   - throughput: every member of the group loops SendToGroup; we count
//     completed broadcasts per second of simulated time in steady state.
//
// All experiments run on the Table-3-calibrated cost model
// (sim::CostModel::mc68030_ether10()): 20-MHz MC68030s, 10 Mbit/s
// Ethernet, Lance NICs with 32-frame rings, 128-message history.
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/chain.hpp"
#include "common/stats.hpp"
#include "group/sim_harness.hpp"

namespace amoeba::bench {

struct DelayResult {
  double mean_us{0};
  double p99_us{0};
  std::size_t iters{0};
  bool ok{false};
};

/// One sender (process 1), group of `members`, message of `bytes`.
DelayResult measure_delay(std::size_t members, std::size_t bytes,
                          group::Method method, std::uint32_t resilience = 0,
                          int iters = 300, std::uint64_t seed = 1);

struct ThroughputResult {
  double msgs_per_sec{0};
  double eth_utilization{0};  // fraction of wire time busy
  std::uint64_t history_stalls{0};
  std::uint64_t nic_drops{0};
  std::uint64_t collisions{0};
  std::uint64_t retransmits{0};
  std::uint64_t batch_frames{0};  // seq_packed frames the sequencer emitted
  std::uint64_t batch_msgs{0};    // messages carried inside those frames
  bool ok{false};
};

/// Batching & pipelining knobs for throughput runs. The defaults are the
/// PAPER's protocol — one multicast per message, one blocking send per
/// member — so the Figure 4/5 reproduction tables stay anchored; the
/// extension sections pass explicit values.
struct ThroughputOptions {
  std::size_t batch_count{1};  // sequencer packing cap (1 = off)
  int window{1};               // concurrent sends kept in flight per member
};

/// `members` each loop SendToGroup with `bytes`, keeping `opts.window`
/// sends in flight. `history_size` 0 = the paper's 128.
ThroughputResult measure_throughput(std::size_t members, std::size_t bytes,
                                    group::Method method,
                                    std::uint32_t resilience = 0,
                                    Duration sim_time = Duration::seconds(5),
                                    std::uint64_t seed = 1,
                                    std::size_t history_size = 0,
                                    ThroughputOptions opts = {});

/// Figure 6: `n_groups` disjoint groups of `group_size` members, all on
/// ONE Ethernet, every member sending continuously. Returns the aggregate
/// broadcast rate and the wire statistics (collisions are the story).
ThroughputResult measure_parallel_groups(std::size_t n_groups,
                                         std::size_t group_size,
                                         std::size_t bytes,
                                         Duration sim_time = Duration::seconds(3),
                                         std::uint64_t seed = 1);

/// Pretty row printers shared by all bench mains.
void print_header(const char* title, const char* paper_ref);
void print_series_header(const std::vector<std::string>& columns);
void print_row(const std::vector<std::string>& cells);
std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace amoeba::bench
