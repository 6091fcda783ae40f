// Seed-swept conformance properties for sharded groups with cross-shard
// atomic multicast.
//
// The sweep size is environment-driven so one binary serves two budgets:
// AMOEBA_PROPERTY_SEEDS (default 3) seeds x shards in {2,4} x {PB, BB} x
// r in {0,1}; the cross-shard mix (0%, 10%, 50% of sends addressed to two
// shards) cycles with the seed on the PR budget and becomes a full sweep
// dimension when AMOEBA_PROPERTY_MIX_SWEEP is set (the nightly job). Every
// case runs under a nemesis scenario (noise / station crash / shard-0
// sequencer crash) picked from the parameters, and the whole trace is
// judged by the multi-group oracle including the xshard obligations.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "sharded_property_harness.hpp"

namespace amoeba::group::prop {
namespace {

std::vector<ShardedParams> sweep_params() {
  const int seeds = env_count("AMOEBA_PROPERTY_SEEDS", 3);
  constexpr int kMixes[] = {0, 10, 50};
  const bool full_mix_sweep =
      std::getenv("AMOEBA_PROPERTY_MIX_SWEEP") != nullptr;
  std::vector<ShardedParams> out;
  for (int s = 0; s < seeds; ++s) {
    for (const std::uint32_t shards : {2u, 4u}) {
      for (const Method m : {Method::pb, Method::bb}) {
        for (const std::uint32_t r : {0u, 1u}) {
          for (const int mix : kMixes) {
            if (!full_mix_sweep && mix != kMixes[s % 3]) continue;
            out.push_back(ShardedParams{
                .seed = 2000 + static_cast<std::uint64_t>(s),
                .n_shards = shards, .method = m, .resilience = r,
                .mix_pct = mix});
          }
        }
      }
    }
  }
  return out;
}

class ShardedSweep : public ::testing::TestWithParam<ShardedParams> {};

TEST_P(ShardedSweep, OracleHoldsUnderNemesis) {
  const ShardedParams p = GetParam();
  const ShardedOutcome out = run_sharded_case(p);
  ASSERT_TRUE(out.formed) << out.report;
  ASSERT_TRUE(out.reset_ok) << out.report;
  EXPECT_TRUE(out.verdict.ok()) << out.report;
  EXPECT_TRUE(out.report.empty()) << out.report;
  // The nemesis must have actually interfered, or the sweep proves nothing.
  EXPECT_GT(out.injected, 0u) << describe(p, out.scenario);
  // And with a nonzero mix the cross-shard machinery must have been
  // exercised: rounds admitted and messages handed up.
  if (p.mix_pct > 0) {
    EXPECT_GT(out.xsends, 0u) << describe(p, out.scenario);
    EXPECT_GT(out.xdeliveries, 0u) << describe(p, out.scenario);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShardedSweep, ::testing::ValuesIn(sweep_params()),
    [](const ::testing::TestParamInfo<ShardedParams>& ti) {
      const ShardedParams& p = ti.param;
      std::string sc = sharded_scenario_name(pick_sharded_scenario(p));
      for (char& c : sc) {
        if (c == '-') c = '_';
      }
      return "seed" + std::to_string(p.seed) + "_s" +
             std::to_string(p.n_shards) +
             (p.method == Method::pb ? "_pb" : "_bb") + "_r" +
             std::to_string(p.resilience) + "_mix" +
             std::to_string(p.mix_pct) + "_" + sc;
    });

}  // namespace
}  // namespace amoeba::group::prop
