// Canonical floating-point draws and the distributions the selection
// algorithms consume.
//
// The paper's rand() is uniform on [0,1).  Its bid is r = log(rand())/f,
// which is -inf when rand() returns exactly 0.  A -inf bid merely guarantees
// that processor loses the race (harmless but wasteful), so the library
// draws bids from the open-closed interval (0,1] where log() is always
// finite.  The selection distribution is unchanged: {0} has measure zero.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <random>
#include <span>

#include "rng/philox.hpp"
#include "simd/dispatch.hpp"

namespace lrb::rng {

/// Concept for the engines this library accepts: 64-bit output covering the
/// full range, like all engines in lrb::rng and std::mt19937_64.
template <typename G>
concept Engine64 = std::uniform_random_bit_generator<std::remove_reference_t<G>> &&
                   std::same_as<typename std::remove_reference_t<G>::result_type,
                                std::uint64_t>;

/// Uniform on [0,1), 53-bit resolution (the classic "canonical" mapping;
/// matches the paper's rand() contract).
template <Engine64 G>
[[nodiscard]] double u01_closed_open(G&& gen) noexcept {
  return static_cast<double>(gen() >> 11) * 0x1.0p-53;
}

/// THE bits -> (0,1] mapping: ((bits >> 11) + 1) * 2^-53, 53-bit resolution.
///
/// This is the library's single definition of the open-closed uniform.  Both
/// the stream engines (u01_open_closed below) and the counter-based
/// deterministic paths (rng::deterministic_bid, core::DeterministicBidder,
/// core::DeterministicDrawKernel, sample_without_replacement) consume raw
/// 64-bit words through this one function, so the replay contract — same
/// bits, same double, same winner — cannot drift between call sites.
/// Pinned bit-for-bit in tests/rng/uniform_test.cpp.
[[nodiscard]] constexpr double u01_open_closed_from_bits(std::uint64_t bits) noexcept {
  return static_cast<double>((bits >> 11) + 1) * 0x1.0p-53;
}

/// Uniform on (0,1], 53-bit resolution.  log(u01_open_closed()) is always
/// finite; use this for bid generation.
template <Engine64 G>
[[nodiscard]] double u01_open_closed(G&& gen) noexcept {
  return u01_open_closed_from_bits(gen());
}

/// Bulk fill of raw 64-bit words — one engine step per element, in element
/// order, so a filled block consumes exactly out.size() draws and matches a
/// loop of gen() calls bit for bit.  The batched selection kernel's stream
/// draws (core/deterministic.hpp) fill bits a block at a time and push the
/// bits -> (0,1] conversion through the SIMD engine (simd/dispatch.hpp).
template <Engine64 G>
void fill_bits(G&& gen, std::span<std::uint64_t> out) noexcept {
  for (std::uint64_t& b : out) b = gen();
}

/// PhiloxRng bulk fill: a counter-based engine's future outputs are pure
/// functions of (seed, stream, counter), so the block is generated by the
/// SIMD Philox kernel — N lanes of consecutive counters — and the engine
/// seeks past it.  Word-for-word AND state-for-state identical to the
/// generic loop above (the engine's lo/hi word order is the kernel's output
/// order); pinned in tests/simd/kernels_test.cpp.
inline void fill_bits(PhiloxRng& gen, std::span<std::uint64_t> out) noexcept {
  std::size_t i = 0;
  if (out.empty()) return;
  if (gen.position() & 1) out[i++] = gen();  // drain the buffered high word
  const std::size_t blocks = (out.size() - i) / 2;
  if (blocks > 0) {
    simd::ops().philox_words_counter_range(gen.seed(), gen.stream(),
                                           gen.position() / 2, out.data() + i,
                                           blocks);
    gen.seek(gen.position() + 2 * blocks);
    i += 2 * blocks;
  }
  while (i < out.size()) out[i++] = gen();  // at most one trailing low word
}

/// Bulk fill of (0,1] uniforms — one engine step per element, in element
/// order, so a filled block consumes exactly out.size() draws and matches a
/// loop of u01_open_closed() calls bit for bit.
template <Engine64 G>
void fill_u01_open_closed(G&& gen, std::span<double> out) noexcept {
  for (double& x : out) x = u01_open_closed(gen);
}

/// PhiloxRng bulk (0,1] fill: SIMD counter-range Philox plus the SIMD
/// bits -> (0,1] conversion, in cache-resident chunks.  Identical doubles
/// and identical final engine state to the generic loop, on every dispatch
/// target (the conversion is exact — see simd::Ops::fill_u01_from_bits).
inline void fill_u01_open_closed(PhiloxRng& gen, std::span<double> out) noexcept {
  constexpr std::size_t kChunk = 256;
  std::uint64_t bits[kChunk];
  const simd::Ops& ops = simd::ops();
  std::size_t done = 0;
  while (done < out.size()) {
    const std::size_t len = std::min(kChunk, out.size() - done);
    fill_bits(gen, std::span<std::uint64_t>(bits, len));
    ops.fill_u01_from_bits(bits, out.data() + done, len);
    done += len;
  }
}

/// Uniform on (0,1) — both endpoints excluded.
template <Engine64 G>
[[nodiscard]] double u01_open_open(G&& gen) noexcept {
  return (static_cast<double>(gen() >> 12) + 0.5) * 0x1.0p-52;
}

/// Uniform integer in [0, bound) by Lemire's multiply-shift rejection method
/// (unbiased, no modulo).
template <Engine64 G>
[[nodiscard]] std::uint64_t uniform_below(G&& gen, std::uint64_t bound) noexcept {
  // Degenerate bound: the only valid return is 0.
  if (bound <= 1) return 0;
  while (true) {
    const std::uint64_t x = gen();
    const unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
    const std::uint64_t low = static_cast<std::uint64_t>(m);
    if (low >= bound) {
      return static_cast<std::uint64_t>(m >> 64);
    }
    // Rejection zone: accept unless low < 2^64 mod bound.
    const std::uint64_t threshold = (0 - bound) % bound;
    if (low >= threshold) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
}

/// Exponential with rate `lambda` (> 0) by inversion.
template <Engine64 G>
[[nodiscard]] double exponential(G&& gen, double lambda) noexcept {
  return -std::log(u01_open_closed(gen)) / lambda;
}

/// Standard Gumbel(0,1): -log(-log(U)).
template <Engine64 G>
[[nodiscard]] double gumbel(G&& gen) noexcept {
  return -std::log(-std::log(u01_open_open(gen)));
}

/// The paper's logarithmic random bid for fitness f > 0:
///   r = log(u)/f,  u ~ Uniform(0,1].
/// r is in (-inf, 0]; larger is better.  Exactly equivalent to negating an
/// Exponential(f) arrival time, hence the winner of max(r_i) is index i with
/// probability f_i / sum(f).
template <Engine64 G>
[[nodiscard]] double log_bid(G&& gen, double fitness) noexcept {
  return std::log(u01_open_closed(gen)) / fitness;
}

/// Stateless variant used by counter-based deterministic parallel paths:
/// forms the bid from a pre-drawn uniform.
[[nodiscard]] inline double log_bid_from_uniform(double u, double fitness) noexcept {
  return std::log(u) / fitness;
}

/// The Efraimidis–Spirakis key u^(1/w) for ablation A2.  Mathematically the
/// winner distribution equals log-bidding (it is exp(log(u)/w)), but the
/// direct form underflows to 0 for small w / small u, collapsing ties —
/// measured in bench/ablation_key_formulations.
template <Engine64 G>
[[nodiscard]] double es_key(G&& gen, double weight) noexcept {
  return std::pow(u01_open_closed(gen), 1.0 / weight);
}

/// The biased "independent roulette" draw r = f * u from Cecilia et al.,
/// kept as the paper's baseline.
template <Engine64 G>
[[nodiscard]] double independent_draw(G&& gen, double fitness) noexcept {
  return fitness * u01_closed_open(gen);
}

}  // namespace lrb::rng
