#include "core/wheel_set.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "../testing.hpp"
#include "core/batch.hpp"
#include "rng/wheel_keys.hpp"
#include "simd/simd_testing.hpp"

namespace lrb::core {
namespace {

// A deterministic family of ragged wheels: wheel w has sizes[w % ...] items,
// mixed positive/zero entries, no RNG involved so every run sees the same
// arena.
std::vector<std::vector<double>> make_wheels(std::size_t count,
                                             std::size_t base_n) {
  std::vector<std::vector<double>> wheels(count);
  for (std::size_t w = 0; w < count; ++w) {
    const std::size_t n = base_n + (w % 5);  // ragged: n .. n+4
    wheels[w].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Every 7th entry is a zero (skipped by the active set); the rest
      // vary over two orders of magnitude.
      wheels[w][i] =
          ((i + w) % 7 == 0) ? 0.0 : 1.0 + static_cast<double>((i * 13 + w) % 100);
    }
    if (count_nonzero(wheels[w]) == 0) wheels[w][0] = 3.5;
  }
  return wheels;
}

WheelSet build_arena(const std::vector<std::vector<double>>& wheels,
                     std::uint64_t set_seed = 42) {
  WheelSet set(set_seed);
  for (const auto& f : wheels) (void)set.add_wheel(f);
  return set;
}

TEST(WheelSet, ConstructionAndAccessors) {
  const auto wheels = make_wheels(17, 6);
  WheelSet set = build_arena(wheels, 99);
  ASSERT_EQ(set.wheels(), wheels.size());
  std::size_t items = 0;
  std::size_t active = 0;
  for (std::size_t w = 0; w < wheels.size(); ++w) {
    ASSERT_EQ(set.size(w), wheels[w].size());
    ASSERT_EQ(set.active_count(w), count_nonzero(wheels[w]));
    ASSERT_EQ(set.seed(w), rng::wheel_seed(99, w));
    ASSERT_EQ(set.cursor(w), 0u);
    for (std::size_t i = 0; i < wheels[w].size(); ++i) {
      ASSERT_EQ(set.value(w, i), wheels[w][i]);
    }
    const auto span = set.wheel_values(w);
    ASSERT_TRUE(std::equal(span.begin(), span.end(), wheels[w].begin()));
    items += wheels[w].size();
    active += count_nonzero(wheels[w]);
  }
  EXPECT_EQ(set.total_items(), items);
  EXPECT_EQ(set.total_active(), active);
}

// The tentpole contract: one batched cross-wheel pass is bit-identical to
// calling batch_select_deterministic on each wheel serially, at every
// (n, K, B) shape — including wheels far larger than the internal tile.
TEST(WheelSet, DrawBatchMatchesPerWheelSerialReference) {
  for (const std::size_t base_n : {1u, 2u, 8u, 33u, 700u}) {
    const std::size_t count = base_n > 100 ? 5 : 23;
    const auto wheels = make_wheels(count, base_n);
    for (const std::size_t b : {1u, 3u, 8u}) {
      WheelSet set = build_arena(wheels);
      std::vector<WheelSet::DrawRequest> requests;
      for (std::size_t w = 0; w < count; ++w) requests.push_back({w, b});
      const auto got = set.draw_batch(requests);
      ASSERT_EQ(got.size(), count * b);
      for (std::size_t w = 0; w < count; ++w) {
        const auto expected =
            batch_select_deterministic(wheels[w], b, set.seed(w));
        for (std::size_t d = 0; d < b; ++d) {
          ASSERT_EQ(got[w * b + d], expected[d])
              << "n=" << base_n << " wheel=" << w << " draw=" << d;
        }
        ASSERT_EQ(set.cursor(w), b);
      }
    }
  }
}

// Splitting a batch, or interleaving a wheel's draws across several
// requests, is unobservable: the cursor carries the stream.
TEST(WheelSet, CursorContinuationAndInterleavedRequests) {
  const auto wheels = make_wheels(9, 5);
  WheelSet one = build_arena(wheels);
  std::vector<WheelSet::DrawRequest> all;
  for (std::size_t w = 0; w < wheels.size(); ++w) all.push_back({w, 6});
  const auto reference = one.draw_batch(all);

  // Two half-batches.
  WheelSet two = build_arena(wheels);
  std::vector<WheelSet::DrawRequest> half;
  for (std::size_t w = 0; w < wheels.size(); ++w) half.push_back({w, 3});
  const auto first = two.draw_batch(half);
  const auto second = two.draw_batch(half);
  for (std::size_t w = 0; w < wheels.size(); ++w) {
    for (std::size_t d = 0; d < 3; ++d) {
      ASSERT_EQ(first[w * 3 + d], reference[w * 6 + d]);
      ASSERT_EQ(second[w * 3 + d], reference[w * 6 + 3 + d]);
    }
  }

  // The same wheel repeated within one batch continues its cursor.
  WheelSet three = build_arena(wheels);
  const std::vector<WheelSet::DrawRequest> interleaved = {
      {0, 2}, {4, 6}, {0, 1}, {0, 3}, {4, 0}, {2, 6}};
  const auto got = three.draw_batch(interleaved);
  ASSERT_EQ(got.size(), 18u);
  const auto w0 = batch_select_deterministic(wheels[0], 6, three.seed(0));
  EXPECT_EQ(got[0], w0[0]);
  EXPECT_EQ(got[1], w0[1]);
  EXPECT_EQ(got[8], w0[2]);
  EXPECT_EQ(got[9], w0[3]);
  EXPECT_EQ(got[10], w0[4]);
  EXPECT_EQ(got[11], w0[5]);
  EXPECT_EQ(three.cursor(0), 6u);
  EXPECT_EQ(three.cursor(4), 6u);

  // seek() replays a wheel's stream from any draw id.
  three.seek(0, 2);
  EXPECT_EQ(three.draw_one(0), w0[2]);
}

TEST(WheelSet, UpdatesKeepSumsAndDrawsConsistent) {
  const auto wheels = make_wheels(6, 8);
  WheelSet set = build_arena(wheels);
  auto mutated = wheels;

  // Value change, activation, and deactivation across several wheels.
  const struct {
    std::size_t w, i;
    double f;
  } edits[] = {{0, 1, 9.75}, {1, 0, 0.0}, {2, 2, 123.0},
               {3, 3, 0.5},  {0, 2, 0.0}, {1, 0, 4.25}};
  for (const auto& e : edits) {
    // make_wheels puts a zero at (i + w) % 7 == 0; edits hit both kinds.
    set.update(e.w, e.i, e.f);
    mutated[e.w][e.i] = e.f;
  }
  for (std::size_t w = 0; w < wheels.size(); ++w) {
    ASSERT_EQ(set.active_count(w), count_nonzero(mutated[w]));
    for (std::size_t i = 0; i < mutated[w].size(); ++i) {
      ASSERT_EQ(set.value(w, i), mutated[w][i]);
    }
  }

  // Draws after updates == a fresh kernel over the mutated values at the
  // same cursor (update must fully invalidate stale packed state).
  std::vector<WheelSet::DrawRequest> requests;
  for (std::size_t w = 0; w < wheels.size(); ++w) requests.push_back({w, 5});
  const auto got = set.draw_batch(requests);
  for (std::size_t w = 0; w < wheels.size(); ++w) {
    const auto expected =
        batch_select_deterministic(mutated[w], 5, set.seed(w));
    for (std::size_t d = 0; d < 5; ++d) {
      ASSERT_EQ(got[w * 5 + d], expected[d]) << "wheel=" << w << " d=" << d;
    }
  }

  // Emptying a wheel makes draws throw.
  for (std::size_t i = 0; i < mutated[2].size(); ++i) set.update(2, i, 0.0);
  EXPECT_EQ(set.active_count(2), 0u);
  const WheelSet::DrawRequest empty_req{2, 1};
  EXPECT_THROW((void)set.draw_batch({&empty_req, 1}), InvalidFitnessError);
  // Refilling revives it.
  set.update(2, 3, 2.0);
  EXPECT_EQ(set.draw_one(2), 3u);
}

TEST(WheelSet, ErrorSurface) {
  WheelSet set(1);
  (void)set.add_wheel(std::vector<double>{1.0, 0.0, 2.0});
  // An all-zero wheel is legal at admission, rejected at draw time with the
  // wheel named.
  const std::size_t zero = set.add_wheel(std::vector<double>{0.0, 0.0});
  const WheelSet::DrawRequest bad{zero, 2};
  try {
    (void)set.draw_batch({&bad, 1});
    FAIL() << "expected InvalidFitnessError";
  } catch (const InvalidFitnessError& e) {
    EXPECT_NE(std::string(e.what()).find("wheel 1"), std::string::npos)
        << e.what();
  }
  const WheelSet::DrawRequest out_of_range{7, 1};
  EXPECT_THROW((void)set.draw_batch({&out_of_range, 1}),
               InvalidArgumentError);
  // Draw counts that sum past size_t (here to 2^64, which would wrap to 0)
  // are rejected before any cursor moves: the next draw is the one a fresh
  // arena makes.
  const std::vector<WheelSet::DrawRequest> overflow = {{0, std::size_t{1} << 63},
                                                       {0, std::size_t{1} << 63}};
  try {
    (void)set.draw_batch(overflow);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("draws"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(set.cursor(0), 0u);
  {
    WheelSet fresh(1);
    (void)fresh.add_wheel(std::vector<double>{1.0, 0.0, 2.0});
    EXPECT_EQ(set.draw_one(0), fresh.draw_one(0));
  }
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  // A total that fits max_size() but not memory (2^59 draws: a 2^62-byte
  // output, whose allocation fails at once) is typed the same way, before
  // any cursor moves.  Sanitizer allocators abort on such a request instead
  // of throwing, so those builds skip it.
  const WheelSet::DrawRequest unallocatable{0, std::size_t{1} << 59};
  try {
    (void)set.draw_batch({&unallocatable, 1});
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("draws"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(set.cursor(0), 1u);
#endif
  EXPECT_THROW((void)set.add_wheel(std::vector<double>{}),
               InvalidFitnessError);
  EXPECT_THROW((void)set.add_wheel(std::vector<double>{1.0, -2.0}),
               InvalidFitnessError);
  EXPECT_THROW(set.update(0, 9, 1.0), InvalidArgumentError);
  EXPECT_THROW(set.update(0, 0, -1.0), InvalidFitnessError);
  EXPECT_THROW(set.update(9, 0, 1.0), InvalidArgumentError);
  // A batch of zero requests (or zero draws) is a no-op, not an error.
  EXPECT_TRUE(set.draw_batch({}).empty());
  const WheelSet::DrawRequest none{0, 0};
  EXPECT_TRUE(set.draw_batch({&none, 1}).empty());
}

// The arena inherits the SIMD engine's contract: the same winners on every
// dispatch target this machine can run.
TEST(WheelSet, BitEqualAcrossDispatchTargets) {
  const auto wheels = make_wheels(19, 9);
  std::vector<WheelSet::DrawRequest> requests;
  for (std::size_t w = 0; w < wheels.size(); ++w) requests.push_back({w, 4});
  std::vector<std::size_t> scalar_result;
  {
    simd::testing::ScopedTarget force(simd::Target::kScalar);
    ASSERT_TRUE(force.forced());
    WheelSet set = build_arena(wheels);
    scalar_result = set.draw_batch(requests);
  }
  for (simd::Target target : simd::testing::available_targets()) {
    simd::testing::ScopedTarget force(target);
    ASSERT_TRUE(force.forced());
    WheelSet set = build_arena(wheels);
    EXPECT_EQ(set.draw_batch(requests), scalar_result)
        << "target=" << static_cast<int>(target);
  }
}

TEST(WheelSet, MoveTransfersArena) {
  const auto wheels = make_wheels(4, 6);
  const WheelSet::DrawRequest req{1, 2};
  WheelSet set = build_arena(wheels);
  const auto before = set.draw_batch({&req, 1});
  WheelSet moved = std::move(set);
  ASSERT_EQ(moved.wheels(), wheels.size());
  ASSERT_EQ(moved.cursor(1), 2u);
  // The stream continues where the moved-from arena left off.
  moved.seek(1, 0);
  EXPECT_EQ(moved.draw_batch({&req, 1}), before);
}

// Marginals stay exact through the batched pass: each wheel's draw stream,
// extracted from cross-wheel batches, is chi-square consistent with its
// exact roulette probabilities.
TEST(WheelSet, BatchedDrawsMatchRouletteMarginals) {
  const std::vector<std::vector<double>> wheels = {
      {1, 2, 3, 4},
      {10, 0, 1, 1, 5},
      {2, 2, 2},
  };
  WheelSet set = build_arena(wheels, 7);
  std::vector<WheelSet::DrawRequest> requests;
  for (std::size_t w = 0; w < wheels.size(); ++w) requests.push_back({w, 50});
  std::vector<stats::SelectionHistogram> hists;
  for (const auto& f : wheels) hists.emplace_back(f.size());
  for (int round = 0; round < 120; ++round) {
    const auto got = set.draw_batch(requests);
    for (std::size_t w = 0; w < wheels.size(); ++w) {
      for (std::size_t d = 0; d < 50; ++d) hists[w].record(got[w * 50 + d]);
    }
  }
  for (std::size_t w = 0; w < wheels.size(); ++w) {
    lrb::testing::expect_matches_roulette(hists[w], wheels[w]);
  }
}

}  // namespace
}  // namespace lrb::core
