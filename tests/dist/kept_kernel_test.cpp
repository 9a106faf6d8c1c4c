// The deterministic kernels ShardedFitness keeps per shard.
//
// Every point update patches the owning shard's kernel instead of the batch
// re-packing the shard, so the contract under test is that the patched
// kernels never drift from the values: one seeded update script — re-weights,
// zero <-> positive flips, a shard emptied and refilled, uniform and weighted
// reshards mid-stream, a snapshot round trip, copies and moves — is driven
// against distributed_bidding_deterministic_batch and the serial
// DeterministicBidder over a plain mirror vector, and every winner must be
// bit-identical at P in {1, 2, 3, 4, 7, 16}.  Also pinned: each kept kernel
// equals a fresh build over its shard, a steady-state batch builds no kernel
// (obs counter), and a process that embodies one rank packs only that rank.
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/deterministic.hpp"
#include "dist/backend.hpp"
#include "dist/selection.hpp"
#include "dist/sharding.hpp"
#include "persist/snapshot.hpp"
#include "rng/uniform.hpp"
#include "rng/xoshiro256.hpp"

#if defined(LRB_OBS_ENABLED)
#include "obs/metrics.hpp"
#endif

namespace {

using lrb::core::DeterministicBidder;
using lrb::core::DeterministicDrawKernel;
using lrb::dist::DeterministicDistributedBidder;
using lrb::dist::ShardedFitness;

constexpr std::uint64_t kSeed = 0x5eedc0ffee123457ULL;
constexpr std::size_t kBatch = 6;
const std::vector<std::size_t> kRankSweep = {1, 2, 3, 4, 7, 16};

/// 61 cells (prime, so every tested P splits unevenly), a third of them 0.
std::vector<double> initial_fitness() {
  std::vector<double> fitness(61, 0.0);
  for (std::size_t i = 0; i < fitness.size(); ++i) {
    if (i % 3 != 0) fitness[i] = 0.5 + static_cast<double>((i * 11) % 17);
  }
  return fitness;
}

/// Every kept kernel agrees with a fresh build over its current shard: same
/// active count, and the same scored winner (bid and index) for a few draws.
void expect_kernels_match_fresh_builds(const ShardedFitness& shards) {
  for (std::size_t r = 0; r < shards.ranks(); ++r) {
    const DeterministicDrawKernel& kept = shards.shard_kernel(r);
    ASSERT_EQ(kept.active_count(), shards.positive_count(r)) << "rank " << r;
    ASSERT_EQ(kept.size(), shards.shard(r).size()) << "rank " << r;
    if (shards.positive_count(r) == 0) continue;
    const DeterministicDrawKernel fresh(shards.shard(r),
                                        shards.shard_range(r).begin);
    for (std::uint64_t t = 0; t < 4; ++t) {
      const auto a = kept.draw_scored(kSeed, t);
      const auto b = fresh.draw_scored(kSeed, t);
      ASSERT_EQ(a.index, b.index) << "rank " << r << " draw " << t;
      ASSERT_EQ(a.bid, b.bid) << "rank " << r << " draw " << t;
    }
  }
}

/// The update script's state: the sharded vector under test, its cursor, the
/// serial reference over a plain mirror of the values.
struct Script {
  std::vector<double> mirror;
  ShardedFitness shards;
  DeterministicDistributedBidder cursor{kSeed};
  DeterministicBidder serial{kSeed};
  lrb::rng::Xoshiro256StarStar gen;

  Script(std::size_t ranks, std::uint64_t script_seed)
      : mirror(initial_fitness()), shards(mirror, ranks), gen(script_seed) {}

  void set(std::size_t index, double value) {
    shards.update(index, value);
    mirror[index] = value;
  }

  /// `count` random updates: ~30% zero (flips off, or no-ops on zeros), the
  /// rest positive (re-weights, or flips on), a few of them subnormal.
  void random_updates(std::size_t count) {
    for (std::size_t u = 0; u < count; ++u) {
      const auto index = static_cast<std::size_t>(
          lrb::rng::uniform_below(gen, mirror.size()));
      const std::uint64_t kind = lrb::rng::uniform_below(gen, 10);
      double value = 0.0;
      if (kind == 9) {
        value = 1e-310;
      } else if (kind >= 3) {
        value = 0.125 + static_cast<double>(lrb::rng::uniform_below(gen, 40));
      }
      set(index, value);
    }
  }

  /// One batch through the cursor; every winner must equal the serial
  /// bidder's over the mirror.
  void check_batch(const std::string& where) {
    const std::uint64_t first = cursor.next_draw_id();
    const lrb::dist::BatchDrawResult got = cursor.select_batch(shards, kBatch);
    ASSERT_EQ(got.indices.size(), kBatch);
    for (std::size_t t = 0; t < kBatch; ++t) {
      ASSERT_EQ(got.indices[t], serial.select(mirror))
          << where << ": draw " << first + t << " at P=" << shards.ranks();
    }
  }
};

TEST(KeptKernels, UpdateScriptMatchesSerialBidderAtEveryP) {
  for (std::size_t p : kRankSweep) {
    Script s(p, 1000 + p);
    s.check_batch("initial");
    expect_kernels_match_fresh_builds(s.shards);

    // Re-weights and flips.
    for (int round = 0; round < 8; ++round) {
      s.random_updates(7);
      s.check_batch("random updates round " + std::to_string(round));
    }
    expect_kernels_match_fresh_builds(s.shards);

    // Empty the last rank's shard (every shard, at P = 1), keep a positive
    // elsewhere when there is an elsewhere, then refill it.
    const std::size_t last = p - 1;
    const lrb::parallel::Range range = s.shards.shard_range(last);
    if (range.begin > 0) s.set(0, 3.0);
    for (std::size_t i = range.begin; i < range.end; ++i) s.set(i, 0.0);
    ASSERT_EQ(s.shards.positive_count(last), 0u);
    ASSERT_EQ(s.shards.shard_kernel(last).active_count(), 0u);
    if (range.begin == 0) {
      EXPECT_THROW((void)s.cursor.select_batch(s.shards, kBatch),
                   lrb::InvalidFitnessError);
    } else {
      s.check_batch("shard emptied");
    }
    for (std::size_t i = range.begin; i < range.end; i += 2) s.set(i, 2.5);
    s.check_batch("shard refilled");
    expect_kernels_match_fresh_builds(s.shards);

    // Reshards in mid-stream rebuild every kernel at the new boundaries.
    (void)s.shards.reshard(p + 2);
    s.check_batch("after reshard");
    s.random_updates(9);
    s.check_batch("updates after reshard");
    const std::vector<double> capacities = {3.0, 0.0, 1.0, 2.0};
    (void)s.shards.reshard_weighted(capacities);
    s.random_updates(9);
    s.check_batch("updates after reshard_weighted");
    expect_kernels_match_fresh_builds(s.shards);
    (void)s.shards.reshard(p);

    // Snapshot -> restore: the kernels are rebuilt from the restored values.
    lrb::persist::Snapshot snap;
    snap.put_sharded_fitness(s.shards);
    s.shards = lrb::persist::Snapshot::decode(snap.encode()).sharded_fitness();
    s.check_batch("after restore");
    s.random_updates(7);
    s.check_batch("updates after restore");
    expect_kernels_match_fresh_builds(s.shards);

    // A copy owns its kernels: updating the original leaves the copy's
    // winners those of the values it was copied with.
    const std::vector<double> copied_values = s.mirror;
    ShardedFitness copy = s.shards;
    s.random_updates(7);
    s.check_batch("original after copy");
    DeterministicBidder copy_serial(kSeed);
    copy_serial.seek(s.cursor.next_draw_id());
    const lrb::dist::BatchDrawResult from_copy =
        lrb::dist::distributed_bidding_deterministic_batch(
            copy, kBatch, kSeed, s.cursor.next_draw_id());
    for (std::size_t t = 0; t < kBatch; ++t) {
      ASSERT_EQ(from_copy.indices[t], copy_serial.select(copied_values))
          << "copy at P=" << p << " draw " << t;
    }
    expect_kernels_match_fresh_builds(copy);

    // A moved-to vector keeps drawing and patching.
    ShardedFitness moved = std::move(s.shards);
    s.shards = std::move(moved);
    s.random_updates(7);
    s.check_batch("after move");
    expect_kernels_match_fresh_builds(s.shards);
  }
}

TEST(KeptKernels, SetEqualsFreshBuildAndValidates) {
  std::vector<double> block = {0.0, 2.0, 0.0, 5.0, 1.0};
  constexpr std::uint64_t kBase = 100;
  DeterministicDrawKernel kept(block, kBase);
  const std::pair<std::size_t, double> script[] = {
      {2, 4.0}, {3, 0.0}, {1, 7.5}, {0, 1e-310}, {4, 0.0}, {3, 0.0}, {3, 9.0}};
  for (const auto& [j, f] : script) {
    kept.set(kBase + j, f);
    block[j] = f;
    const DeterministicDrawKernel fresh(block, kBase);
    ASSERT_EQ(kept.active_count(), fresh.active_count());
    for (std::uint64_t t = 0; t < 8; ++t) {
      ASSERT_EQ(kept.draw_scored(kSeed, t).index, fresh.draw_scored(kSeed, t).index);
      ASSERT_EQ(kept.draw_scored(kSeed, t).bid, fresh.draw_scored(kSeed, t).bid);
    }
  }
  EXPECT_THROW(kept.set(kBase - 1, 1.0), lrb::InvalidArgumentError);
  EXPECT_THROW(kept.set(kBase + block.size(), 1.0), lrb::InvalidArgumentError);
  EXPECT_THROW(kept.set(kBase, -1.0), lrb::InvalidFitnessError);
  EXPECT_THROW(kept.set(kBase, std::numeric_limits<double>::quiet_NaN()),
               lrb::InvalidFitnessError);
  for (std::size_t j = 0; j < block.size(); ++j) kept.set(kBase + j, 0.0);
  EXPECT_EQ(kept.active_count(), 0u);
}

/// A process that embodies exactly one rank (as an MPI process does) with
/// the simulated machine's collectives.
class OneRankBackend final : public lrb::dist::CommBackend {
 public:
  explicit OneRankBackend(std::size_t mine) : mine_(mine) {}
  std::string_view name() const noexcept override { return "one-rank"; }
  bool owns_rank(std::size_t rank) const noexcept override {
    return rank == mine_;
  }
  std::vector<double> allreduce_max(const lrb::dist::Topology& topo,
                                    std::span<const double> local,
                                    lrb::dist::CommLedger& ledger) const override {
    return sim().allreduce_max(topo, local, ledger);
  }
  std::vector<lrb::dist::ArgMax> allreduce_argmax(
      const lrb::dist::Topology& topo, std::span<const lrb::dist::ArgMax> local,
      lrb::dist::CommLedger& ledger) const override {
    return sim().allreduce_argmax(topo, local, ledger);
  }
  std::vector<std::vector<lrb::dist::ArgMax>> allreduce_argmax_batch(
      const lrb::dist::Topology& topo,
      std::span<const std::vector<lrb::dist::ArgMax>> local,
      lrb::dist::CommLedger& ledger) const override {
    return sim().allreduce_argmax_batch(topo, local, ledger);
  }
  std::vector<double> allreduce_sum(const lrb::dist::Topology& topo,
                                    std::span<const double> local,
                                    lrb::dist::CommLedger& ledger) const override {
    return sim().allreduce_sum(topo, local, ledger);
  }
  std::vector<double> exclusive_scan_sum(
      const lrb::dist::Topology& topo, std::span<const double> local,
      lrb::dist::CommLedger& ledger) const override {
    return sim().exclusive_scan_sum(topo, local, ledger);
  }
  double reduce_sum(const lrb::dist::Topology& topo,
                    std::span<const double> local, std::size_t root,
                    lrb::dist::CommLedger& ledger) const override {
    return sim().reduce_sum(topo, local, root, ledger);
  }
  std::vector<double> broadcast(const lrb::dist::Topology& topo, double value,
                                std::size_t root,
                                lrb::dist::CommLedger& ledger) const override {
    return sim().broadcast(topo, value, root, ledger);
  }

 private:
  static const lrb::dist::CommBackend& sim() {
    return lrb::dist::simulated_backend();
  }
  std::size_t mine_;
};

TEST(KeptKernels, OnlyTheEmbodiedRankIsPacked) {
  constexpr std::size_t kRanks = 4;
  const std::vector<double> fitness = initial_fitness();
  for (std::size_t mine = 0; mine < kRanks; ++mine) {
    ShardedFitness shards(fitness, kRanks,
                          std::make_shared<const OneRankBackend>(mine));
    for (std::size_t r = 0; r < kRanks; ++r) {
      if (r == mine) continue;
      EXPECT_THROW((void)shards.shard_kernel(r), lrb::InvalidArgumentError)
          << "rank " << r << " seen from rank " << mine;
    }
    // Updates anywhere keep the counts exact and patch only the own kernel.
    for (std::size_t i = 0; i < fitness.size(); i += 5) shards.update(i, 0.0);
    for (std::size_t i = 1; i < fitness.size(); i += 7) shards.update(i, 4.0);
    const lrb::parallel::Range own = shards.shard_range(mine);
    const DeterministicDrawKernel& kept = shards.shard_kernel(mine);
    ASSERT_EQ(kept.active_count(), shards.positive_count(mine));
    const DeterministicDrawKernel fresh(shards.shard(mine), own.begin);
    // This process's contribution is its own sub-race: under the simulated
    // collectives the batch's winners are rank `mine`'s kernel winners.
    const lrb::dist::BatchDrawResult got =
        lrb::dist::distributed_bidding_deterministic_batch(shards, kBatch, kSeed);
    for (std::uint64_t t = 0; t < kBatch; ++t) {
      EXPECT_EQ(got.indices[t], fresh.draw_one(kSeed, t));
      EXPECT_EQ(kept.draw_one(kSeed, t), fresh.draw_one(kSeed, t));
    }
  }
}

#if defined(LRB_OBS_ENABLED)
TEST(KeptKernels, SteadyStateBatchesBuildNoKernel) {
  const std::vector<double> fitness = initial_fitness();
  lrb::obs::Counter& builds =
      lrb::obs::Registry::global().counter("lrb_core_det_kernel_builds_total");
  ShardedFitness shards(fitness, 4);
  DeterministicDistributedBidder cursor(kSeed);
  lrb::rng::Xoshiro256StarStar gen(9);
  const std::uint64_t before = builds.value();
  for (int batch = 0; batch < 50; ++batch) {
    for (int u = 0; u < 3; ++u) {
      const auto index =
          static_cast<std::size_t>(lrb::rng::uniform_below(gen, fitness.size()));
      // Flips and re-weights both; index 1 stays positive throughout.
      shards.update(index == 1 ? 2 : index, static_cast<double>(u));
    }
    (void)cursor.select_batch(shards, 8);
  }
  EXPECT_EQ(builds.value() - before, 0u);
}
#endif  // LRB_OBS_ENABLED

}  // namespace
