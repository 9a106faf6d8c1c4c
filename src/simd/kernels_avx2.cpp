// The AVX2 target: Philox4x32-10 with one block per 64-bit lane, 4-wide
// bits -> (0,1] conversion and bound pass.  This translation unit is
// compiled with -mavx2 (see src/CMakeLists.txt) and selected only after
// cpuid confirms the host executes AVX2; when the compiler cannot target
// AVX2 at all, the whole file collapses to a nullptr table.
//
// Bit-equality with the scalar target is structural, not hoped-for:
//   * the Philox kernels are pure 32-bit integer arithmetic in the layout
//     below, which computes exactly rng::detail::philox_round per lane;
//   * the u64 -> double conversion uses the classic two-halves trick whose
//     adds are exact for values <= 2^53 (ours are), matching the scalar
//     static_cast; the 2^-53 scale is a power of two (always exact);
//   * the bound pass is sub-then-mul-then-max, each exactly rounded and
//     order-independent, with no FMA contraction.
// Loop tails delegate to the exported scalar kernels rather than touching
// inline library code, so no AVX2-compiled COMDAT can leak into portable TUs.
//
// Philox layout.  A Group holds four blocks as four vectors c0..c3: lane j
// of c<w> carries word w of block j in its LOW dword.  The high dwords hold
// whatever the last op left there (a product's high half, a key word's high
// half), and no such bit reaches an output, because
//   * vpmuludq reads only the low dwords of its operands;
//   * xor and the 32-bit key add act dword by dword, so a high dword never
//     mixes into a low one;
//   * vpshufd, which does swap the dwords of a lane, is applied only where
//     both dwords are defined: to a full 64-bit product (bringing its high
//     half down) or to a 64-bit input word (bringing its upper word down);
//   * an output u64 is a blend of one vector's low dwords with another's
//     low dwords moved up, so every stored dword is a defined Philox word.
#include "simd/kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <limits>

#include "rng/philox.hpp"

namespace lrb::simd::detail {
namespace {

using V = __m256i;
constexpr std::size_t kLanes = 4;   // Philox blocks per vector
// Vectors in flight per main-loop step.  Two, not four: four groups' state
// alone fills the 16 ymm registers, and the spills made four slower.
constexpr std::size_t kGroups = 2;

inline V bcast(std::uint64_t x) {
  return _mm256_set1_epi64x(static_cast<long long>(x));
}
inline V load(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void store(std::uint64_t* p, V x) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), x);
}
inline V xor3(V a, V b, V c) {
  return _mm256_xor_si256(_mm256_xor_si256(a, b), c);
}

// Swaps the two dwords of every 64-bit lane.
inline V swap32(V x) { return _mm256_shuffle_epi32(x, 0xB1); }

// The engine's u64: low dwords of `lo` | low dwords of `hi` << 32.
inline V pack(V lo, V hi) { return _mm256_blend_epi32(lo, swap32(hi), 0xAA); }

struct Group {
  V c0, c1, c2, c3;
};

// The one Philox round body of this target (rng::detail::philox_round):
// {p1.hi ^ c1 ^ k0, p1.lo, p0.hi ^ c3 ^ k1, p0.lo} with p0 = M0 * c0 and
// p1 = M1 * c2.  The products stay whole; their high halves move down with
// vpshufd.  A caller that keeps only words 0-1 leaves the last round's
// c2/c3 dead, and the compiler drops the M0 product with them.
inline void philox_round(Group& b, V k0, V k1) {
  const V p0 = _mm256_mul_epu32(b.c0, bcast(rng::detail::kPhiloxM0));
  const V p1 = _mm256_mul_epu32(b.c2, bcast(rng::detail::kPhiloxM1));
  b.c0 = xor3(swap32(p1), b.c1, k0);
  b.c1 = p1;
  b.c2 = xor3(swap32(p0), b.c3, k1);
  b.c3 = p0;
}

// Broadcast round keys: round r uses key + r * W (mod 2^32) in the low
// dwords; the carry into the high dwords is harmless.
struct RoundKeys {
  V k0[10], k1[10];
  explicit RoundKeys(std::uint64_t seed) {
    for (std::uint64_t r = 0; r < 10; ++r) {
      k0[r] = bcast(seed + r * rng::detail::kPhiloxW0);
      k1[r] = bcast((seed >> 32) + r * rng::detail::kPhiloxW1);
    }
  }
};

// Runs step.operator()<G>(i) over [0, n): kGroups vectors per step while
// they fit, then one.  Returns where the scalar tail starts.
template <std::size_t kG = kGroups, class Step>
inline std::size_t sweep(std::size_t n, Step step) {
  std::size_t i = 0;
  for (; i + kG * kLanes <= n; i += kG * kLanes) {
    step.template operator()<kG>(i);
  }
  for (; i + kLanes <= n; i += kLanes) step.template operator()<1>(i);
  return i;
}

void philox_words_counter_range_avx2(std::uint64_t seed, std::uint64_t stream,
                                     std::uint64_t counter0, std::uint64_t* out,
                                     std::size_t nblocks) {
  const RoundKeys rk(seed);
  const V s_lo = bcast(stream);
  const V s_hi = bcast(stream >> 32);
  const V lane = _mm256_setr_epi64x(0, 1, 2, 3);
  const std::size_t done = sweep(nblocks, [&]<std::size_t G>(std::size_t i) {
    Group b[G];
    for (std::size_t g = 0; g < G; ++g) {
      // Full 64-bit counters, wrapping mod 2^64 like the engine's.
      const V ctr = _mm256_add_epi64(bcast(counter0 + i + g * kLanes), lane);
      b[g] = {ctr, swap32(ctr), s_lo, s_hi};
    }
    for (int r = 0; r < 10; ++r) {
      for (Group& x : b) philox_round(x, rk.k0[r], rk.k1[r]);
    }
    for (std::size_t g = 0; g < G; ++g) {
      const V lo = pack(b[g].c0, b[g].c1);
      const V hi = pack(b[g].c2, b[g].c3);
      // Interleave (lo, hi) per block into the engine's word order.
      const V even = _mm256_unpacklo_epi64(lo, hi);  // blocks 0 | 2
      const V odd = _mm256_unpackhi_epi64(lo, hi);   // blocks 1 | 3
      std::uint64_t* o = out + 2 * (i + g * kLanes);
      store(o, _mm256_permute2x128_si256(even, odd, 0x20));
      store(o + kLanes, _mm256_permute2x128_si256(even, odd, 0x31));
    }
  });
  if (done < nblocks) {
    philox_words_counter_range_scalar(seed, stream, counter0 + done,
                                      out + 2 * done, nblocks - done);
  }
}

void philox_bits_streams_avx2(std::uint64_t seed, std::uint64_t counter,
                              const std::uint64_t* streams, std::uint64_t* out,
                              std::size_t n) {
  const RoundKeys rk(seed);
  // Round 1 with the counter broadcast: M0 * counter.lo is one scalar
  // product, and counter.hi ^ key0 and p0.hi ^ key1 are constants.
  const std::uint64_t p0 = std::uint64_t{rng::detail::kPhiloxM0} *
                           static_cast<std::uint32_t>(counter);
  const V c1_k0 = bcast((counter >> 32) ^ seed);
  const V p0hi_k1 = bcast((p0 >> 32) ^ (seed >> 32));
  const V m1 = bcast(rng::detail::kPhiloxM1);
  const std::size_t done = sweep(n, [&]<std::size_t G>(std::size_t i) {
    Group b[G];
    for (std::size_t g = 0; g < G; ++g) {
      const V s = load(streams + i + g * kLanes);
      const V p1 = _mm256_mul_epu32(s, m1);
      b[g] = {_mm256_xor_si256(swap32(p1), c1_k0), p1,
              _mm256_xor_si256(swap32(s), p0hi_k1), bcast(p0)};
    }
    for (int r = 1; r < 10; ++r) {
      for (Group& x : b) philox_round(x, rk.k0[r], rk.k1[r]);
    }
    for (std::size_t g = 0; g < G; ++g) {
      store(out + i + g * kLanes, pack(b[g].c0, b[g].c1));
    }
  });
  if (done < n) {
    philox_bits_streams_scalar(seed, counter, streams + done, out + done,
                               n - done);
  }
}

void philox_bits_keyed_avx2(const std::uint64_t* seeds,
                            const std::uint64_t* counters,
                            const std::uint64_t* streams, std::uint64_t* out,
                            std::size_t n) {
  const V w0 = bcast(rng::detail::kPhiloxW0);
  const V w1 = bcast(rng::detail::kPhiloxW1);
  const std::size_t done = sweep(n, [&]<std::size_t G>(std::size_t i) {
    // All three 64-bit key words vary per lane: counters feed c0/c1,
    // streams feed c2/c3, and seeds become per-lane round keys.
    Group b[G];
    V k0[G], k1[G];
    for (std::size_t g = 0; g < G; ++g) {
      const std::size_t j = i + g * kLanes;
      const V ctr = load(counters + j);
      const V st = load(streams + j);
      b[g] = {ctr, swap32(ctr), st, swap32(st)};
      k0[g] = load(seeds + j);
      k1[g] = swap32(k0[g]);
    }
    for (int r = 0; r < 10; ++r) {
      for (std::size_t g = 0; g < G; ++g) {
        philox_round(b[g], k0[g], k1[g]);
        k0[g] = _mm256_add_epi32(k0[g], w0);
        k1[g] = _mm256_add_epi32(k1[g], w1);
      }
    }
    for (std::size_t g = 0; g < G; ++g) {
      store(out + i + g * kLanes, pack(b[g].c0, b[g].c1));
    }
  });
  if (done < n) {
    philox_bits_keyed_scalar(seeds + done, counters + done, streams + done,
                             out + done, n - done);
  }
}

void fill_u01_from_bits_avx2(const std::uint64_t* bits, double* out,
                             std::size_t n) {
  const std::size_t main = n & ~std::size_t{3};
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i exp52 = _mm256_castpd_si256(_mm256_set1_pd(0x1.0p52));
  const __m256i exp84 = _mm256_castpd_si256(_mm256_set1_pd(0x1.0p84));
  const __m256d sub = _mm256_set1_pd(0x1.0p84 + 0x1.0p52);
  const __m256d scale = _mm256_set1_pd(0x1.0p-53);
  for (std::size_t i = 0; i < main; i += 4) {
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bits + i));
    // v = (bits >> 11) + 1, in [1, 2^53] — exactly representable.
    const __m256i v = _mm256_add_epi64(_mm256_srli_epi64(b, 11), one);
    // Exact u64 -> f64 via the two-halves trick: hi dwords become
    // 2^84 + hi * 2^32, low dwords become 2^52 + lo; the magic-constant
    // subtraction cancels both biases with exact adds (v <= 2^53).
    const __m256i x_hi = _mm256_or_si256(_mm256_srli_epi64(v, 32), exp84);
    const __m256i x_lo = _mm256_blend_epi32(v, exp52, 0xAA);
    const __m256d hi_d = _mm256_sub_pd(_mm256_castsi256_pd(x_hi), sub);
    const __m256d d = _mm256_add_pd(hi_d, _mm256_castsi256_pd(x_lo));
    _mm256_storeu_pd(out + i, _mm256_mul_pd(d, scale));
  }
  if (main < n) fill_u01_from_bits_scalar(bits + main, out + main, n - main);
}

double bound_pass_avx2(const double* u, const double* inv_f, double* ub,
                       std::size_t n) {
  const std::size_t main = n & ~std::size_t{3};
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d vmax = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < main; i += 4) {
    const __m256d b = _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(u + i), one),
                                    _mm256_loadu_pd(inv_f + i));
    _mm256_storeu_pd(ub + i, b);
    vmax = _mm256_max_pd(vmax, b);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, vmax);
  double block_max = lanes[0];
  for (int j = 1; j < 4; ++j) {
    if (lanes[j] > block_max) block_max = lanes[j];
  }
  if (main < n) {
    const double tail = bound_pass_scalar(u + main, inv_f + main, ub + main,
                                          n - main);
    if (tail > block_max) block_max = tail;
  }
  return block_max;
}

constexpr Ops kAvx2Ops = {
    "avx2",
    Target::kAvx2,
    &philox_words_counter_range_avx2,
    &philox_bits_streams_avx2,
    &philox_bits_keyed_avx2,
    &fill_u01_from_bits_avx2,
    &bound_pass_avx2,
};

}  // namespace

const Ops* avx2_ops() noexcept { return &kAvx2Ops; }

}  // namespace lrb::simd::detail

#else  // !__AVX2__

namespace lrb::simd::detail {
const Ops* avx2_ops() noexcept { return nullptr; }
}  // namespace lrb::simd::detail

#endif
