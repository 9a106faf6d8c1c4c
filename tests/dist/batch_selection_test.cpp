// distributed_bidding_batch: the amortized-round batched hot path.
//
// Three contracts under test: (1) B == 1 reproduces distributed_bidding bit
// for bit (winner and ledger); (2) the batched ledger — exactly ceil(log2 P)
// rounds for the WHOLE batch (rounds/draw ~ 1/B), words exactly B x the
// single-draw bill, and strictly cheaper than B independent prefix-sum draws
// on every axis, for every rank count; (3) the joint distribution — every
// batch position is exactly F_i-distributed, chi-square-checked per position
// and pooled, across shapes and rank counts.
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "../testing.hpp"
#include "common/math.hpp"
#include "dist/selection.hpp"
#include "dist/sharding.hpp"
#include "rng/seed.hpp"
#include "rng/uniform.hpp"
#include "rng/xoshiro256.hpp"

namespace {

using lrb::dist::ArgMax;
using lrb::dist::BatchDrawResult;
using lrb::dist::DrawResult;
using lrb::dist::ShardedFitness;

std::vector<double> sparse_fitness(std::size_t n) {
  std::vector<double> fitness(n, 0.0);
  for (std::size_t i = 0; i < n; i += 3) {
    fitness[i] = 1.0 + static_cast<double>(i % 17);
  }
  return fitness;
}

/// Independent reference: the un-batched, un-filtered algorithm — per rank,
/// B back-to-back serial sub-races from engine seeds.child(r); per draw, an
/// argmax combine over ranks in rank order.  No kernel, no batched
/// collective, so the production path is checked against straight-line code.
std::vector<std::size_t> reference_batch(const ShardedFitness& shards,
                                         std::size_t batch,
                                         const lrb::rng::SeedSequence& seeds) {
  constexpr double kNoBid = -std::numeric_limits<double>::infinity();
  constexpr std::uint64_t kNoIndex = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::vector<ArgMax>> local(
      shards.ranks(), std::vector<ArgMax>(batch, ArgMax{kNoBid, kNoIndex}));
  for (std::size_t r = 0; r < shards.ranks(); ++r) {
    lrb::rng::Xoshiro256StarStar gen(seeds.child(r));
    const auto range = shards.shard_range(r);
    const auto shard = shards.shard(r);
    for (std::size_t t = 0; t < batch; ++t) {
      bool found = false;
      for (std::size_t j = 0; j < shard.size(); ++j) {
        if (shard[j] <= 0.0) continue;
        const double bid = lrb::rng::log_bid(gen, shard[j]);
        if (!found || bid > local[r][t].value) {
          local[r][t] = ArgMax{bid, static_cast<std::uint64_t>(range.begin + j)};
          found = true;
        }
      }
    }
  }
  std::vector<std::size_t> winners(batch);
  for (std::size_t t = 0; t < batch; ++t) {
    ArgMax best = local[0][t];
    for (std::size_t r = 1; r < shards.ranks(); ++r) {
      best = lrb::dist::argmax_combine(best, local[r][t]);
    }
    EXPECT_GT(best.value, kNoBid);
    winners[t] = static_cast<std::size_t>(best.index);
  }
  return winners;
}

TEST(DistributedBiddingBatch, MatchesUnbatchedSerialReference) {
  const std::vector<double> fitness = sparse_fitness(200);
  for (std::size_t p : {1u, 2u, 5u, 16u, 300u}) {
    const ShardedFitness shards(fitness, p);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const lrb::rng::SeedSequence seeds(seed);
      const BatchDrawResult batch =
          lrb::dist::distributed_bidding_batch(shards, 7, seeds);
      SCOPED_TRACE("p=" + std::to_string(p) + " seed=" + std::to_string(seed));
      EXPECT_EQ(batch.indices, reference_batch(shards, 7, seeds));
    }
  }
}

TEST(DistributedBiddingBatch, BatchOfOneMatchesSingleDraw) {
  // distributed_bidding delegates to the B == 1 batch, so this pins the
  // wrapper's contract (index and ledger pass through unchanged); the
  // algorithmic content is covered by MatchesUnbatchedSerialReference.
  const std::vector<double> fitness = sparse_fitness(200);
  for (std::size_t p : {1u, 2u, 5u, 16u, 300u}) {
    const ShardedFitness shards(fitness, p);
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const DrawResult single = lrb::dist::distributed_bidding(shards, seed);
      const BatchDrawResult batch =
          lrb::dist::distributed_bidding_batch(shards, 1, seed);
      SCOPED_TRACE("p=" + std::to_string(p) + " seed=" + std::to_string(seed));
      ASSERT_EQ(batch.indices.size(), 1u);
      EXPECT_EQ(batch.indices[0], single.index);
      EXPECT_EQ(batch.comm, single.comm);
    }
  }
}

TEST(DistributedBiddingBatch, IsDeterministicPerSeed) {
  const ShardedFitness shards(sparse_fitness(64), 5);
  const BatchDrawResult a = lrb::dist::distributed_bidding_batch(shards, 9, 99);
  const BatchDrawResult b = lrb::dist::distributed_bidding_batch(shards, 9, 99);
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_EQ(a.comm, b.comm);
}

// The amortization claim, as exact arithmetic: one batch costs ceil(log2 P)
// rounds and ceil(log2 P) * P messages NO MATTER the batch size — only the
// payload grows (words exactly B x the single-draw bill) — so the per-draw
// round latency shrinks proportionally to 1/B.
TEST(DistributedBiddingBatch, LedgerAmortizesRoundsAcrossTheBatch) {
  const std::vector<double> fitness = sparse_fitness(4096);
  for (std::size_t p : {2u, 3u, 8u, 11u, 64u, 100u, 1024u}) {
    const ShardedFitness shards(fitness, p);
    const std::uint64_t lg = lrb::ceil_log2(p);
    for (std::size_t b : {1u, 4u, 16u, 64u}) {
      const BatchDrawResult batch =
          lrb::dist::distributed_bidding_batch(shards, b, 7);
      SCOPED_TRACE("p=" + std::to_string(p) + " b=" + std::to_string(b));
      ASSERT_EQ(batch.indices.size(), b);
      EXPECT_EQ(batch.comm.rounds, lg);
      EXPECT_EQ(batch.comm.messages, lg * p);
      EXPECT_EQ(batch.comm.words, 2 * b * lg * p);
      EXPECT_EQ(batch.comm.critical_path_words, 2 * b * lg);
      // Zero-fault pin: a clean machine never touches the retry axes.
      EXPECT_EQ(batch.comm.retries, 0u);
      EXPECT_EQ(batch.comm.retried_rounds, 0u);
      EXPECT_EQ(batch.comm.retried_words, 0u);
    }
  }
}

// The batched-ledger invariant: one bidding batch of B draws is strictly
// cheaper than B independent prefix-sum draws on EVERY axis, at every rank
// count in the 2..1024 sweep.
TEST(DistributedBiddingBatch, BeatsBTimesPrefixSumOnEveryAxis) {
  const std::vector<double> fitness = sparse_fitness(4096);
  for (std::size_t p = 2; p <= 1024; p *= 2) {
    const ShardedFitness shards(fitness, p);
    const DrawResult pfx = lrb::dist::distributed_prefix_sum(shards, 7);
    for (std::size_t b : {1u, 16u, 256u}) {
      const BatchDrawResult batch =
          lrb::dist::distributed_bidding_batch(shards, b, 7);
      SCOPED_TRACE("p=" + std::to_string(p) + " b=" + std::to_string(b));
      EXPECT_LT(batch.comm.rounds, b * pfx.comm.rounds);
      EXPECT_LT(batch.comm.messages, b * pfx.comm.messages);
      EXPECT_LT(batch.comm.words, b * pfx.comm.words);
      EXPECT_LT(batch.comm.critical_path_words,
                b * pfx.comm.critical_path_words);
    }
  }
}

// Joint marginals: within one batch the B draws are independent and each
// position t is exactly F_i-distributed.  Checked per position (histogram
// over many batches at fixed t) and pooled, across shapes and rank counts.
TEST(DistributedBiddingBatch, JointMarginalsAreExactPerPosition) {
  constexpr std::size_t kBatch = 4;
  constexpr std::uint64_t kBatches = 6000;
  for (const auto& shape : lrb::testing::canonical_fitness_cases()) {
    for (std::size_t p : {2u, 5u, 8u}) {
      const ShardedFitness shards(shape.fitness, p);
      const lrb::rng::SeedSequence seeds(0xb5297a4d1ac9e5b3ULL ^ p);
      std::vector<lrb::stats::SelectionHistogram> position_hist(
          kBatch, lrb::stats::SelectionHistogram(shape.fitness.size()));
      lrb::stats::SelectionHistogram pooled(shape.fitness.size());
      for (std::uint64_t rep = 0; rep < kBatches; ++rep) {
        const BatchDrawResult batch = lrb::dist::distributed_bidding_batch(
            shards, kBatch, seeds.subsequence(rep));
        for (std::size_t t = 0; t < kBatch; ++t) {
          position_hist[t].record(batch.indices[t]);
          pooled.record(batch.indices[t]);
        }
      }
      SCOPED_TRACE(std::string(shape.name) + " p=" + std::to_string(p));
      for (std::size_t t = 0; t < kBatch; ++t) {
        SCOPED_TRACE("position=" + std::to_string(t));
        lrb::testing::expect_matches_roulette(position_hist[t], shape.fitness);
      }
      lrb::testing::expect_matches_roulette(pooled, shape.fitness);
    }
  }
}

TEST(DistributedBiddingBatch, EmptyAndZeroShardsNeverBid) {
  // More ranks than entries: trailing shards are empty, zero cells inert.
  const std::vector<double> fitness = {0, 0, 5, 0};
  const ShardedFitness shards(fitness, 8);
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const BatchDrawResult batch =
        lrb::dist::distributed_bidding_batch(shards, 6, seed);
    for (std::size_t index : batch.indices) EXPECT_EQ(index, 2u);
  }
}

TEST(DistributedBiddingBatch, RejectsBadArguments) {
  const ShardedFitness shards(std::vector<double>{1.0, 2.0}, 2);
  EXPECT_THROW((void)lrb::dist::distributed_bidding_batch(shards, 0, 1),
               lrb::InvalidArgumentError);
  ShardedFitness zeroed(std::vector<double>{1.0, 2.0}, 2);
  zeroed.update(0, 0.0);
  zeroed.update(1, 0.0);
  EXPECT_THROW((void)lrb::dist::distributed_bidding_batch(zeroed, 4, 1),
               lrb::InvalidFitnessError);
}

}  // namespace
