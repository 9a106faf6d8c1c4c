// Property tests for the vectorized bound pass at the filter's edge — the
// same proof obligations core/bid_filter.hpp documents, executed against
// every dispatch target: the (u - 1) * (1/f) bound must ALWAYS sit at or
// above the true bid log(u)/f (with the clamped reciprocal), the gate slack
// must absorb its rounding, and therefore the filtered kernels must never
// discard a true winner — not for subnormal fitness (where 1/f clamps to
// DBL_MAX), not for 1e308 fitness (where 1/f is itself subnormal), not for
// active counts straddling the lane width, not for all-ties blocks where
// every bound collides.
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/bid_filter.hpp"
#include "core/deterministic.hpp"
#include "core/draw_many.hpp"
#include "core/logarithmic_bidding.hpp"
#include "rng/splitmix64.hpp"
#include "rng/uniform.hpp"
#include "rng/xoshiro256.hpp"
#include "simd/dispatch.hpp"
#include "simd_testing.hpp"

namespace lrb::simd {
namespace {

/// Active counts around every lane width the engine ships (4, 8, 16) plus
/// multi-block sizes with every remainder class.
const std::vector<std::size_t> kEdgeCounts = {1,  2,  3,  4,  5,  7,  8,  9,
                                              15, 16, 17, 31, 33, 255, 257,
                                              300};

/// Fitness shapes at the numerical edge of the filter.  Totals must stay
/// finite — several 1e308 entries overflow checked_fitness_total, which the
/// library rejects by design — so the huge shapes carry ONE 1e308 item.
struct EdgeShape {
  const char* name;
  double fill;     // fill value
  double first;    // fitness[0] (the 1e308 spike lives here)
  bool alternate_tiny;  // interleave odd indices with the min subnormal
};

const EdgeShape kEdgeShapes[] = {
    {"subnormal", 5e-324, 5e-324, false},
    {"deep_subnormal_mix", 1e-320, 1e-320, true},
    {"huge_1e308_spike", 1.0, 1e308, false},
    {"huge_spike_over_tiny", 1.0, 1e308, true},
    {"all_ties_ones", 1.0, 1.0, false},
    {"all_ties_large", 3.5e10, 3.5e10, false},
};

std::vector<double> make_edge_fitness(const EdgeShape& shape, std::size_t k) {
  std::vector<double> fitness(k, shape.fill);
  fitness[0] = shape.first;
  if (shape.alternate_tiny) {
    for (std::size_t i = 1; i < k; i += 2) fitness[i] = 5e-324;
  }
  return fitness;
}

TEST(BoundPassProperty, BoundNeverSitsBelowTrueBid) {
  // The inequality the whole filter rests on, checked directly on the
  // kernel output: for every lane, ub >= log(u) / f even through the
  // DBL_MAX clamp and subnormal reciprocals.  (u - 1) <= 0, so clamping
  // 1/f DOWN moves the bound UP — the kernel must preserve exactly that.
  rng::SplitMix64 mix(2024);
  for (Target t : testing::available_targets()) {
    const Ops* table = ops_for(t);
    for (std::size_t k : kEdgeCounts) {
      std::vector<double> f(k), inv_f(k), u(k), ub(k);
      for (std::size_t i = 0; i < k; ++i) {
        switch (i % 4) {
          case 0: f[i] = 5e-324; break;      // 1/f overflows -> clamp
          case 1: f[i] = 1e308; break;       // 1/f subnormal
          case 2: f[i] = 1.0; break;
          default: f[i] = 0.25 + static_cast<double>(i % 13);
        }
        inv_f[i] = core::bid_filter::bound_reciprocal(f[i]);
        u[i] = rng::u01_open_closed_from_bits(mix());
      }
      // Include the exact-1.0 uniform edge (bid is exactly 0, the maximum).
      u[k / 2] = 1.0;
      const double block_max =
          table->bound_pass(u.data(), inv_f.data(), ub.data(), k);
      double expect_max = -std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < k; ++i) {
        const double bid = std::log(u[i]) / f[i];
        EXPECT_GE(ub[i], bid)
            << table->name << " k=" << k << " i=" << i << " f=" << f[i];
        if (ub[i] > expect_max) expect_max = ub[i];
      }
      EXPECT_EQ(block_max, expect_max) << table->name << " k=" << k;
    }
  }
}

TEST(BoundPassProperty, GateSlackAbsorbsBoundRounding) {
  // A winner's own bound, gated below itself, must survive the filter: for
  // any bid b, ub >= b > gate_below(b) whenever b is finite.  This is what
  // "the filter can skip work, never change a winner" means lane-locally.
  rng::SplitMix64 mix(5);
  for (Target t : testing::available_targets()) {
    const Ops* table = ops_for(t);
    for (double f : {5e-324, 1e-320, 1e-12, 1.0, 42.0, 1e12, 1e308}) {
      const std::size_t k = 64;
      std::vector<double> u(k), inv_f(k, core::bid_filter::bound_reciprocal(f)),
          ub(k);
      for (std::size_t i = 0; i < k; ++i) {
        u[i] = rng::u01_open_closed_from_bits(mix());
      }
      (void)table->bound_pass(u.data(), inv_f.data(), ub.data(), k);
      for (std::size_t i = 0; i < k; ++i) {
        const double bid = std::log(u[i]) / f;
        if (!std::isfinite(bid)) continue;  // -inf bids never gate anything
        EXPECT_GT(ub[i], core::bid_filter::gate_below(bid))
            << table->name << " f=" << f << " i=" << i;
      }
    }
  }
}

TEST(BoundPassProperty, StreamKernelNeverDiscardsTrueWinnerAtTheEdge) {
  // End to end on the kernel's stream draws (core::draw_many): at every edge
  // shape and lane-straddling active count, on every target, the filtered
  // batch must equal a loop of unfiltered select_bidding() calls — indices
  // and engine state.
  for (Target t : testing::available_targets()) {
    testing::ScopedTarget scope(t);
    ASSERT_TRUE(scope.forced());
    for (const EdgeShape& shape : kEdgeShapes) {
      for (std::size_t k : kEdgeCounts) {
        const std::vector<double> fitness = make_edge_fitness(shape, k);
        rng::Xoshiro256StarStar batched_gen(0xbeef + k);
        rng::Xoshiro256StarStar serial_gen(0xbeef + k);
        const auto batch = core::draw_many(fitness, 40, batched_gen);
        for (std::size_t d = 0; d < batch.size(); ++d) {
          ASSERT_EQ(batch[d], core::select_bidding(fitness, serial_gen))
              << ops_for(t)->name << " " << shape.name << " k=" << k
              << " draw " << d;
        }
        EXPECT_EQ(batched_gen, serial_gen)
            << ops_for(t)->name << " " << shape.name << " k=" << k;
      }
    }
  }
}

TEST(BoundPassProperty, DeterministicKernelNeverDiscardsTrueWinnerAtTheEdge) {
  // Same obligation for the counter-based kernel, against the unfiltered
  // DeterministicBidder scan — and bit-identical across targets.
  constexpr std::uint64_t kSeed = 0x5eed;
  for (const EdgeShape& shape : kEdgeShapes) {
    for (std::size_t k : kEdgeCounts) {
      const std::vector<double> fitness = make_edge_fitness(shape, k);
      core::DeterministicBidder reference(kSeed);
      std::vector<std::size_t> expected;
      for (std::uint64_t d = 0; d < 25; ++d) {
        expected.push_back(reference.select(fitness));
      }
      for (Target t : testing::available_targets()) {
        testing::ScopedTarget scope(t);
        ASSERT_TRUE(scope.forced());
        const core::DeterministicDrawKernel kernel(fitness);
        for (std::uint64_t d = 0; d < expected.size(); ++d) {
          ASSERT_EQ(kernel.draw_one(kSeed, d), expected[d])
              << ops_for(t)->name << " " << shape.name << " k=" << k
              << " draw " << d;
        }
      }
    }
  }
}

TEST(BoundPassProperty, ShardedStreamsKeepGlobalIndexBids) {
  // index_base pushes item streams through arbitrary offsets; the SIMD
  // streams kernel must honor them bit-for-bit (a shard straddling a lane
  // boundary bids with the same global Philox stream as the whole vector).
  constexpr std::uint64_t kSeed = 99;
  const std::size_t n = 47;  // not a multiple of any lane width
  std::vector<double> fitness(n);
  for (std::size_t i = 0; i < n; ++i) {
    fitness[i] = 0.5 + static_cast<double>((i * 7) % 11);
  }
  core::DeterministicBidder reference(kSeed);
  for (Target t : testing::available_targets()) {
    testing::ScopedTarget scope(t);
    ASSERT_TRUE(scope.forced());
    reference.seek(0);
    for (std::uint64_t d = 0; d < 10; ++d) {
      const std::size_t serial = reference.select(fitness);
      // Recompose the draw from 5 shards of ragged sizes.
      double best = -std::numeric_limits<double>::infinity();
      std::uint64_t best_index = 0;
      bool found = false;
      const std::size_t cuts[] = {0, 5, 13, 14, 33, n};
      for (int s = 0; s < 5; ++s) {
        const std::span<const double> shard(fitness.data() + cuts[s],
                                            cuts[s + 1] - cuts[s]);
        const core::DeterministicDrawKernel kernel(shard, cuts[s]);
        const auto won = kernel.draw_scored(kSeed, d);
        if (!found || won.bid > best ||
            (won.bid == best && won.index < best_index)) {
          best = won.bid;
          best_index = won.index;
          found = true;
        }
      }
      ASSERT_TRUE(found);
      EXPECT_EQ(best_index, serial)
          << ops_for(t)->name << " draw " << d;
    }
  }
}

}  // namespace
}  // namespace lrb::simd
