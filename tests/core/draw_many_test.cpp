// The batched hot path's contract: draw_many is select_bidding, m times —
// identical indices, identical RNG consumption (m x k engine steps), exact
// roulette marginals — just without the per-draw O(n) bills.
#include "core/draw_many.hpp"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "../testing.hpp"
#include "core/batch.hpp"
#include "core/deterministic.hpp"
#include "core/logarithmic_bidding.hpp"
#include "rng/philox.hpp"
#include "rng/xoshiro256.hpp"

namespace lrb::core {
namespace {

/// A vector long enough to span several kernel blocks, with zero holes.
std::vector<double> blocky_fitness(std::size_t n) {
  std::vector<double> fitness(n);
  for (std::size_t i = 0; i < n; ++i) {
    fitness[i] = (i % 7 == 0) ? 0.0 : 0.25 + static_cast<double>(i % 13);
  }
  return fitness;
}

// The strongest property: same engine, same draws.  The record-breaking
// filter may only skip items that provably lose, so index-for-index the
// batch equals a loop of select_bidding() calls AND the engine lands in the
// identical state (exactly m x k uniforms consumed).
TEST(DrawMany, IndicesAndEngineStateMatchSerialBidding) {
  for (const auto& shape : lrb::testing::canonical_fitness_cases()) {
    rng::Xoshiro256StarStar batched_gen(42);
    rng::Xoshiro256StarStar serial_gen(42);
    const auto batch = draw_many(shape.fitness, 300, batched_gen);
    ASSERT_EQ(batch.size(), 300u);
    for (std::size_t t = 0; t < batch.size(); ++t) {
      EXPECT_EQ(batch[t], select_bidding(shape.fitness, serial_gen))
          << shape.name << " draw " << t;
    }
    EXPECT_EQ(batched_gen, serial_gen) << shape.name;
  }
}

TEST(DrawMany, MultiBlockVectorsMatchSerialToo) {
  const std::vector<double> fitness = blocky_fitness(1500);  // ~5.7 blocks
  rng::Xoshiro256StarStar batched_gen(7);
  rng::Xoshiro256StarStar serial_gen(7);
  const auto batch = draw_many(fitness, 64, batched_gen);
  for (std::size_t t = 0; t < batch.size(); ++t) {
    EXPECT_EQ(batch[t], select_bidding(fitness, serial_gen)) << "draw " << t;
  }
  EXPECT_EQ(batched_gen, serial_gen);

  // The same through rng::PhiloxRng's bulk fill_bits path, started at an odd
  // position: k is odd, so the draws alternate between blocks that drain the
  // buffered high word and blocks that end on a lone low word.
  rng::PhiloxRng batched_philox(7, 3);
  (void)batched_philox();
  rng::PhiloxRng serial_philox = batched_philox;
  ASSERT_EQ(batched_philox.position() % 2, 1u);
  const auto philox_batch = draw_many(fitness, 64, batched_philox);
  for (std::size_t t = 0; t < philox_batch.size(); ++t) {
    EXPECT_EQ(philox_batch[t], select_bidding(fitness, serial_philox))
        << "philox draw " << t;
  }
  EXPECT_EQ(batched_philox, serial_philox);
}

TEST(DrawMany, SubnormalFitnessStillMatchesSerial) {
  // 1/f rounds to +inf for subnormal f; the kernel clamps the cached
  // reciprocal so the filter bound stays finite and the serial parity
  // guarantee holds even here.
  const std::vector<double> fitness = {5e-324, 1e-320, 2.2250738585072014e-308,
                                       4.9e-324, 1e-310};
  rng::Xoshiro256StarStar batched_gen(77);
  rng::Xoshiro256StarStar serial_gen(77);
  const auto batch = draw_many(fitness, 500, batched_gen);
  for (std::size_t t = 0; t < batch.size(); ++t) {
    EXPECT_EQ(batch[t], select_bidding(fitness, serial_gen)) << "draw " << t;
  }
  EXPECT_EQ(batched_gen, serial_gen);
}

TEST(DrawMany, ChiSquareMatchesExactProbabilities) {
  for (const auto& shape : lrb::testing::canonical_fitness_cases()) {
    rng::Xoshiro256StarStar gen(0x5eedULL);
    stats::SelectionHistogram hist(shape.fitness.size());
    for (std::size_t i : draw_many(shape.fitness, 30000, gen)) hist.record(i);
    SCOPED_TRACE(shape.name);
    lrb::testing::expect_matches_roulette(hist, shape.fitness);
  }
}

TEST(DrawMany, KernelReuseStreamsContinuously) {
  // Two runs of draws on one kernel consume the same stream as one bigger
  // draw_many call: scratch reuse must not perturb the draw sequence.
  const std::vector<double> fitness = blocky_fitness(700);
  rng::Xoshiro256StarStar split_gen(11);
  rng::Xoshiro256StarStar whole_gen(11);
  const DeterministicDrawKernel split_kernel(fitness);
  std::vector<std::size_t> split;
  for (int t = 0; t < 40; ++t) split.push_back(split_kernel.draw_one(split_gen));
  for (int t = 0; t < 60; ++t) split.push_back(split_kernel.draw_one(split_gen));
  const auto whole = draw_many(fitness, 100, whole_gen);
  EXPECT_EQ(split, whole);
  EXPECT_EQ(split_gen, whole_gen);
}

TEST(DrawMany, ActiveSetSkipsZeros) {
  const std::vector<double> fitness = {0, 0, 3, 0, 0, 1, 0, 2, 0};
  const DeterministicDrawKernel kernel(fitness);
  EXPECT_EQ(kernel.size(), fitness.size());
  EXPECT_EQ(kernel.active_count(), 3u);
  rng::Xoshiro256StarStar gen(3);
  for (std::size_t i : draw_many(fitness, 2000, gen)) {
    EXPECT_TRUE(i == 2 || i == 5 || i == 7) << i;
  }
}

TEST(DrawMany, DrawScoredReportsTheWinningBid) {
  const std::vector<double> fitness = {1.0, 4.0, 2.0};
  const DeterministicDrawKernel kernel(fitness);
  rng::Xoshiro256StarStar gen(9);
  for (int t = 0; t < 200; ++t) {
    const auto scored = kernel.draw_scored(gen);
    EXPECT_LT(scored.index, fitness.size());
    EXPECT_LE(scored.bid, 0.0);  // log(u)/f with u in (0,1]
  }
}

TEST(DrawMany, ZeroDrawsStillValidate) {
  rng::Xoshiro256StarStar gen(1);
  EXPECT_TRUE(draw_many(std::vector<double>{1.0, 2.0}, 0, gen).empty());
  EXPECT_THROW((void)draw_many(std::vector<double>{}, 0, gen),
               InvalidFitnessError);
}

TEST(DrawMany, ThrowsOnInvalidFitness) {
  rng::Xoshiro256StarStar gen(1);
  EXPECT_THROW((void)draw_many(std::vector<double>{}, 5, gen),
               InvalidFitnessError);
  EXPECT_THROW((void)draw_many(std::vector<double>{0.0, 0.0}, 5, gen),
               InvalidFitnessError);
  EXPECT_THROW((void)draw_many(std::vector<double>{1.0, -1.0}, 5, gen),
               InvalidFitnessError);
}

// batch_select's bidding strategy now routes through the kernel; its draws
// must stay the exact select_bidding sequence (the seed's behavior), with
// validation paid once per batch instead of once per draw.
TEST(BatchSelectBidding, RoutesThroughDrawManyUnchanged) {
  const std::vector<double> fitness = {3, 1, 0, 2, 5};
  rng::Xoshiro256StarStar batch_gen(21);
  rng::Xoshiro256StarStar serial_gen(21);
  const auto batch =
      batch_select(fitness, 500, batch_gen, BatchStrategy::kBidding);
  for (std::size_t t = 0; t < batch.size(); ++t) {
    EXPECT_EQ(batch[t], select_bidding(fitness, serial_gen)) << "draw " << t;
  }
  EXPECT_EQ(batch_gen, serial_gen);
}

}  // namespace
}  // namespace lrb::core
