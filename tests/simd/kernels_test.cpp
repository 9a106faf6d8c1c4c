// The SIMD engine's headline contract, enforced kernel by kernel: every
// dispatch target produces BIT-IDENTICAL output to the scalar reference —
// which itself routes through the same rng/ primitives the rest of the
// library uses — for every length (lane remainders included), carry edge,
// and bit pattern.  A vector lane that rounded, reordered, or wrapped
// differently anywhere would change a selection winner somewhere; these
// tests pin the arithmetic so the winner-level tests can't pass by luck.
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "rng/philox.hpp"
#include "rng/splitmix64.hpp"
#include "rng/uniform.hpp"
#include "simd/dispatch.hpp"
#include "simd_testing.hpp"

namespace lrb::simd {
namespace {

/// Lengths covering empty, sub-lane, every remainder around the 4/8/16-lane
/// widths, and a few full blocks.
const std::vector<std::size_t> kLengths = {0,  1,  2,  3,  4,  5,  7,  8,
                                           9,  15, 16, 17, 31, 32, 33, 63,
                                           64, 65, 100, 255, 256, 257};

/// Lengths around the Philox kernels' vector steps (8 and 32 blocks on
/// AVX-512, 4 and 8 on AVX2): each sweep step, single-vector step and
/// scalar tail meets its neighbours somewhere in this list.
const std::vector<std::size_t> kStepLengths = {24, 39, 40,  41,  47, 95,
                                               96, 97, 127, 128, 129};

/// Bitwise equality for doubles (0.0 == -0.0 and NaN != NaN are exactly the
/// traps value comparison would hide).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(SimdKernels, PhiloxCounterRangeMatchesEngineWords) {
  // The counter-range kernel IS the PhiloxRng word sequence: check the
  // scalar table against the engine, then every other target against scalar.
  const Ops* scalar = ops_for(Target::kScalar);
  ASSERT_NE(scalar, nullptr);
  const std::uint64_t seed = 0x853c49e6748fea9bULL;
  const std::uint64_t stream = 0xda3e39cb94b95bdbULL;
  for (std::uint64_t counter0 : {std::uint64_t{0}, std::uint64_t{12345},
                                 (std::uint64_t{1} << 32) - 3,
                                 ~std::uint64_t{0} - 500}) {
    for (std::size_t n : kLengths) {
      std::vector<std::uint64_t> reference(2 * n + 1, 0xAAu);
      scalar->philox_words_counter_range(seed, stream, counter0,
                                         reference.data(), n);
      EXPECT_EQ(reference.back(), 0xAAu) << "scalar wrote past 2n";
      for (std::size_t i = 0; i < n; ++i) {
        const rng::PhiloxBlock block =
            rng::philox_block_at(seed, counter0 + i, stream);
        ASSERT_EQ(reference[2 * i], block.u64_lo()) << "counter0=" << counter0
                                                    << " block " << i;
        ASSERT_EQ(reference[2 * i + 1], block.u64_hi());
      }
      for (Target t : testing::available_targets()) {
        std::vector<std::uint64_t> out(2 * n + 1, 0xBBu);
        ops_for(t)->philox_words_counter_range(seed, stream, counter0,
                                               out.data(), n);
        EXPECT_EQ(out.back(), 0xBBu) << ops_for(t)->name << " wrote past 2n";
        out.pop_back();
        reference.pop_back();
        EXPECT_EQ(out, reference)
            << ops_for(t)->name << " n=" << n << " counter0=" << counter0;
        reference.push_back(0xAAu);
      }
    }
  }
}

TEST(SimdKernels, PhiloxStreamsMatchesDeterministicBits) {
  const std::uint64_t seed = 0xc0ffee;
  rng::SplitMix64 mix(99);
  for (std::size_t n : kLengths) {
    // Streams spanning both dword halves: small indices, 2^32 straddlers,
    // and full-width values — the shapes shard offsets actually produce.
    std::vector<std::uint64_t> streams(n);
    for (std::size_t i = 0; i < n; ++i) {
      streams[i] = (i % 3 == 0)   ? i
                   : (i % 3 == 1) ? (std::uint64_t{1} << 32) + i
                                  : mix();
    }
    for (std::uint64_t counter : {std::uint64_t{0}, std::uint64_t{7},
                                  ~std::uint64_t{0}}) {
      std::vector<std::uint64_t> reference(n);
      ops_for(Target::kScalar)
          ->philox_bits_streams(seed, counter, streams.data(),
                                reference.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(reference[i], rng::philox_u64_at(seed, counter, streams[i]));
      }
      for (Target t : testing::available_targets()) {
        std::vector<std::uint64_t> out(n, 0xCCu);
        ops_for(t)->philox_bits_streams(seed, counter, streams.data(),
                                        out.data(), n);
        EXPECT_EQ(out, reference) << ops_for(t)->name << " n=" << n;
      }
    }
  }
}

TEST(SimdKernels, PhiloxKeyedMatchesPerElementReference) {
  // The multi-tenant tile fill: every element carries its own (seed,
  // counter, stream) triple.  The scalar table must equal philox_u64_at
  // per element, and every vector target must equal scalar — per-lane round
  // keys are the only difference from the fixed-seed kernel, so a wrong
  // key-schedule lane would show up here immediately.
  rng::SplitMix64 mix(2024);
  for (std::size_t n : kLengths) {
    std::vector<std::uint64_t> seeds(n), counters(n), streams(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Cover both dword halves of all three key words: small values,
      // 2^32 straddlers, and full-width randoms, phase-shifted so no two
      // arrays correlate.
      seeds[i] = (i % 3 == 0) ? i : (i % 3 == 1) ? ~std::uint64_t{0} - i
                                                 : mix();
      counters[i] = (i % 3 == 1) ? i : (i % 3 == 2)
                        ? (std::uint64_t{1} << 32) + i
                        : mix();
      streams[i] = (i % 3 == 2) ? i : mix();
    }
    std::vector<std::uint64_t> reference(n);
    ops_for(Target::kScalar)
        ->philox_bits_keyed(seeds.data(), counters.data(), streams.data(),
                            reference.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(reference[i],
                rng::philox_u64_at(seeds[i], counters[i], streams[i]));
    }
    for (Target t : testing::available_targets()) {
      std::vector<std::uint64_t> out(n, 0xDDu);
      ops_for(t)->philox_bits_keyed(seeds.data(), counters.data(),
                                    streams.data(), out.data(), n);
      EXPECT_EQ(out, reference) << ops_for(t)->name << " n=" << n;
    }
  }
}

TEST(SimdKernels, PhiloxCounterRangeAtStepWidths) {
  const std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  const std::uint64_t stream = (std::uint64_t{1} << 32) + 5;
  for (std::uint64_t counter0 : {std::uint64_t{3}, ~std::uint64_t{0} - 40}) {
    for (std::size_t n : kStepLengths) {
      std::vector<std::uint64_t> reference(2 * n);
      ops_for(Target::kScalar)
          ->philox_words_counter_range(seed, stream, counter0,
                                       reference.data(), n);
      reference.push_back(0xABu);
      for (Target t : testing::available_targets()) {
        std::vector<std::uint64_t> out(2 * n + 1, 0xABu);
        ops_for(t)->philox_words_counter_range(seed, stream, counter0,
                                               out.data(), n);
        EXPECT_EQ(out, reference)
            << ops_for(t)->name << " n=" << n << " counter0=" << counter0;
      }
    }
  }
}

TEST(SimdKernels, PhiloxStreamsFullWidthKeysWithSentinel) {
  // Seeds and counters whose two dwords differ, so a key or counter word
  // read from the wrong half, or a half dropped, changes the output; the
  // sentinel past n catches a vector step that stores too far.
  rng::SplitMix64 mix(31);
  for (const std::vector<std::size_t>* lengths : {&kLengths, &kStepLengths}) {
    for (std::size_t n : *lengths) {
      std::vector<std::uint64_t> streams(n);
      for (std::size_t i = 0; i < n; ++i) {
        streams[i] = (i % 2 == 0) ? (std::uint64_t{1} << 32) + i : mix();
      }
      for (std::uint64_t seed : {0x853c49e6748fea9bULL, ~0ULL - 17}) {
        for (std::uint64_t counter :
             {(std::uint64_t{1} << 32) + n, ~std::uint64_t{0} - n}) {
          std::vector<std::uint64_t> reference(n + 1, 0xEEu);
          for (std::size_t i = 0; i < n; ++i) {
            reference[i] = rng::philox_u64_at(seed, counter, streams[i]);
          }
          for (Target t : testing::available_targets()) {
            std::vector<std::uint64_t> out(n + 1, 0xEEu);
            ops_for(t)->philox_bits_streams(seed, counter, streams.data(),
                                            out.data(), n);
            EXPECT_EQ(out, reference)
                << ops_for(t)->name << " n=" << n << " seed=" << seed
                << " counter=" << counter;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, PhiloxKeyedAtStepWidthsWithSentinel) {
  rng::SplitMix64 mix(77);
  for (const std::vector<std::size_t>* lengths : {&kLengths, &kStepLengths}) {
    for (std::size_t n : *lengths) {
      std::vector<std::uint64_t> seeds(n), counters(n), streams(n);
      for (std::size_t i = 0; i < n; ++i) {
        seeds[i] = (i % 2 == 0) ? ~std::uint64_t{0} - i : mix();
        counters[i] = (i % 2 == 1) ? (std::uint64_t{1} << 32) + i : mix();
        streams[i] = mix();
      }
      std::vector<std::uint64_t> reference(n + 1, 0xEEu);
      for (std::size_t i = 0; i < n; ++i) {
        reference[i] = rng::philox_u64_at(seeds[i], counters[i], streams[i]);
      }
      for (Target t : testing::available_targets()) {
        std::vector<std::uint64_t> out(n + 1, 0xEEu);
        ops_for(t)->philox_bits_keyed(seeds.data(), counters.data(),
                                      streams.data(), out.data(), n);
        EXPECT_EQ(out, reference) << ops_for(t)->name << " n=" << n;
      }
    }
  }
}

TEST(SimdKernels, FillU01MatchesSharedConversionBitForBit) {
  rng::SplitMix64 mix(7);
  for (std::size_t n : kLengths) {
    std::vector<std::uint64_t> bits(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Pin the conversion edges first, then random patterns.
      bits[i] = (i == 0)   ? 0
                : (i == 1) ? ~std::uint64_t{0}
                : (i == 2) ? (std::uint64_t{1} << 11) - 1
                : (i == 3) ? (std::uint64_t{1} << 11)
                           : mix();
    }
    std::vector<double> reference(n);
    ops_for(Target::kScalar)->fill_u01_from_bits(bits.data(), reference.data(),
                                                 n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(
          same_bits(reference[i], rng::u01_open_closed_from_bits(bits[i])));
    }
    for (Target t : testing::available_targets()) {
      std::vector<double> out(n, -1.0);
      ops_for(t)->fill_u01_from_bits(bits.data(), out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(same_bits(out[i], reference[i]))
            << ops_for(t)->name << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdKernels, BoundPassMatchesScalarBitForBit) {
  rng::SplitMix64 mix(13);
  for (std::size_t n : kLengths) {
    std::vector<double> u(n), inv_f(n);
    for (std::size_t i = 0; i < n; ++i) {
      u[i] = rng::u01_open_closed_from_bits(mix());
      // Reciprocals across the whole legal range, including the DBL_MAX
      // clamp for subnormal fitness and subnormal 1/f for huge fitness.
      inv_f[i] = (i % 7 == 0)   ? std::numeric_limits<double>::max()
                 : (i % 7 == 1) ? 1e-308
                                : 1.0 / (0.25 + static_cast<double>(i % 13));
    }
    std::vector<double> reference(n);
    const double ref_max = ops_for(Target::kScalar)
                               ->bound_pass(u.data(), inv_f.data(),
                                            reference.data(), n);
    if (n == 0) {
      EXPECT_EQ(ref_max, -std::numeric_limits<double>::infinity());
    }
    for (Target t : testing::available_targets()) {
      std::vector<double> ub(n, -7.0);
      const double got_max =
          ops_for(t)->bound_pass(u.data(), inv_f.data(), ub.data(), n);
      EXPECT_TRUE(same_bits(got_max, ref_max)) << ops_for(t)->name << " n=" << n;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(same_bits(ub[i], reference[i]))
            << ops_for(t)->name << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdKernels, PhiloxEngineBulkFillMatchesSerialLoopAndState) {
  // fill_bits(PhiloxRng&) must yield the word-for-word engine sequence AND
  // leave the engine in the state a serial loop would — from every starting
  // phase, at every length, on every target.
  for (Target t : testing::available_targets()) {
    testing::ScopedTarget scope(t);
    ASSERT_TRUE(scope.forced());
    for (std::size_t warmup : {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
      for (std::size_t n : kLengths) {
        rng::PhiloxRng bulk(42, 7);
        rng::PhiloxRng serial(42, 7);
        for (std::size_t w = 0; w < warmup; ++w) {
          (void)bulk();
          (void)serial();
        }
        std::vector<std::uint64_t> out(n);
        rng::fill_bits(bulk, std::span<std::uint64_t>(out));
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], serial()) << "target " << ops_for(t)->name
                                      << " warmup " << warmup << " word " << i;
        }
        EXPECT_EQ(bulk, serial) << "engine state diverged";
        // And the (0,1] bulk fill: same doubles, same final state.
        rng::PhiloxRng bulk_u(42, 7);
        rng::PhiloxRng serial_u(42, 7);
        for (std::size_t w = 0; w < warmup; ++w) {
          (void)bulk_u();
          (void)serial_u();
        }
        std::vector<double> us(n);
        rng::fill_u01_open_closed(bulk_u, std::span<double>(us));
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(same_bits(us[i], rng::u01_open_closed(serial_u)));
        }
        EXPECT_EQ(bulk_u, serial_u);
      }
    }
  }
}

}  // namespace
}  // namespace lrb::simd
