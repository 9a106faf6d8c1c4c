// Instrumentation sites write exactly what the code did — asserted as
// deltas on the global Registry (the process-wide instance is shared with
// every other site, so absolute values are meaningless but deltas taken
// around a single-threaded region are exact).
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/batch.hpp"
#include "core/deterministic.hpp"
#include "core/draw_many.hpp"
#include "dist/selection.hpp"
#include "dist/sharding.hpp"
#include "obs/registry.hpp"
#include "rng/xoshiro256.hpp"
#include "simd/dispatch.hpp"

namespace {

std::uint64_t counter(const char* name) {
  return lrb::obs::Registry::global().counter(name).value();
}

TEST(Instrumentation, DrawManyBillsDrawsAndFilterOutcomesExactly) {
  std::vector<double> fitness(1000);
  for (std::size_t i = 0; i < fitness.size(); ++i) {
    fitness[i] = (i % 4 == 0) ? 0.0 : 1.0 + static_cast<double>(i % 9);
  }
  const lrb::core::DeterministicDrawKernel kernel(fitness);
  const std::size_t k = kernel.active_count();
  constexpr std::size_t kDraws = 64;

  const std::uint64_t draws0 = counter("lrb_core_draws_total");
  const std::uint64_t evals0 = counter("lrb_core_log_evals_total");
  const std::uint64_t skips0 = counter("lrb_core_filter_skips_total");
  lrb::rng::Xoshiro256StarStar gen(11);
  for (std::size_t t = 0; t < kDraws; ++t) (void)kernel.draw_one(gen);

  EXPECT_EQ(counter("lrb_core_draws_total") - draws0, kDraws);
  // Every active item is either log-evaluated or filter-skipped, per draw:
  // the two counters partition m * k exactly.
  EXPECT_EQ((counter("lrb_core_log_evals_total") - evals0) +
                (counter("lrb_core_filter_skips_total") - skips0),
            kDraws * k);
  // The record-breaking filter is the speedup: most items must skip.
  EXPECT_GT(counter("lrb_core_filter_skips_total") - skips0,
            counter("lrb_core_log_evals_total") - evals0);
}

TEST(Instrumentation, KernelBuildRecordsActiveSetDensity) {
  std::vector<double> fitness(200);
  for (std::size_t i = 0; i < fitness.size(); ++i) {
    fitness[i] = (i % 10 == 0) ? 1.0 : 0.0;  // 20 active of 200
  }
  const std::uint64_t builds0 = counter("lrb_core_kernel_builds_total");
  const std::uint64_t items0 = counter("lrb_core_kernel_items_total");
  const std::uint64_t active0 = counter("lrb_core_kernel_active_items_total");
  const lrb::core::DeterministicDrawKernel kernel(fitness);
  EXPECT_EQ(counter("lrb_core_kernel_builds_total") - builds0, 1u);
  EXPECT_EQ(counter("lrb_core_kernel_items_total") - items0, 200u);
  EXPECT_EQ(counter("lrb_core_kernel_active_items_total") - active0, 20u);
  EXPECT_EQ(kernel.active_count(), 20u);
}

TEST(Instrumentation, BatchSelectCountsTheExecutedStrategy) {
  const std::vector<double> fitness = {1, 2, 3, 4, 5, 6, 7, 8};
  lrb::rng::Xoshiro256StarStar gen(5);
  const std::uint64_t bid0 = counter("lrb_core_batch_bidding_total");
  const std::uint64_t alias0 = counter("lrb_core_batch_alias_total");
  (void)lrb::core::batch_select(fitness, 4, gen,
                                lrb::core::BatchStrategy::kBidding);
  (void)lrb::core::batch_select(fitness, 4, gen,
                                lrb::core::BatchStrategy::kAlias);
  EXPECT_EQ(counter("lrb_core_batch_bidding_total") - bid0, 1u);
  EXPECT_EQ(counter("lrb_core_batch_alias_total") - alias0, 1u);
}

TEST(Instrumentation, DistributedBatchRollupEqualsTheLedger) {
  std::vector<double> fitness(256);
  for (std::size_t i = 0; i < fitness.size(); ++i) {
    fitness[i] = 1.0 + static_cast<double>(i % 5);
  }
  const lrb::dist::ShardedFitness shards(fitness, 8);
  const std::uint64_t rounds0 = counter("lrb_dist_rounds_total");
  const std::uint64_t msgs0 = counter("lrb_dist_messages_total");
  const std::uint64_t words0 = counter("lrb_dist_words_total");
  const std::uint64_t draws0 = counter("lrb_dist_draws_total");
  const auto result = lrb::dist::distributed_bidding_batch(shards, 16, 3);
  // The per-collective rollup sums the same CommLedger deltas the result
  // carries — the counters ARE the bill, just process-cumulative.
  EXPECT_EQ(counter("lrb_dist_rounds_total") - rounds0, result.comm.rounds);
  EXPECT_EQ(counter("lrb_dist_messages_total") - msgs0, result.comm.messages);
  EXPECT_EQ(counter("lrb_dist_words_total") - words0, result.comm.words);
  EXPECT_EQ(counter("lrb_dist_draws_total") - draws0, 16u);
}

TEST(Instrumentation, InvalidFitnessThrowsAndCounterAgree) {
  const std::uint64_t errors0 = counter("lrb_errors_invalid_fitness_total");
  const std::vector<double> negative = {1.0, -2.0, 3.0};
  int thrown = 0;
  for (int i = 0; i < 5; ++i) {
    try {
      (void)lrb::core::DeterministicDrawKernel(negative);
    } catch (const lrb::InvalidFitnessError&) {
      ++thrown;
    }
  }
  EXPECT_EQ(thrown, 5);
  // Every construction of the exception type increments the counter — the
  // count and the throws can never disagree.
  EXPECT_EQ(counter("lrb_errors_invalid_fitness_total") - errors0,
            static_cast<std::uint64_t>(thrown));
}

TEST(Instrumentation, SimdGaugeNamesTheResolvedTarget) {
  (void)lrb::simd::ops();  // forces first resolution
  EXPECT_EQ(lrb::obs::Registry::global().gauge("lrb_simd_active_target").value(),
            static_cast<std::int64_t>(lrb::simd::active_target()));
}

TEST(Instrumentation, BatchSizeHistogramRecordsEachBatch) {
  const std::vector<double> fitness = {1, 1, 2, 2};
  const lrb::obs::HistogramSnapshot before =
      lrb::obs::Registry::global().histogram("lrb_core_batch_size").snapshot();
  lrb::rng::Xoshiro256StarStar gen(9);
  (void)lrb::core::draw_many(fitness, 32, gen);
  const lrb::obs::HistogramSnapshot after =
      lrb::obs::Registry::global().histogram("lrb_core_batch_size").snapshot();
  EXPECT_EQ(after.count - before.count, 1u);
  EXPECT_EQ(after.sum - before.sum, 32u);
}

}  // namespace
