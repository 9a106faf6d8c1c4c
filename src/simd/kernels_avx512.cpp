// The AVX-512 target: Philox4x32-10 with one block per 64-bit lane, 8-wide
// conversion and bound pass.  Compiled with -mavx512f -mavx512dq and
// selected only after cpuid confirms both features (DQ supplies the exact
// _mm512_cvtepu64_pd the conversion uses).  The conversion and bound pass
// keep the AVX2 target's argument: exact conversion for values <= 2^53,
// sub-mul-max with no contraction.  Tails delegate to the exported scalar
// kernels so no AVX-512 COMDAT leaks into portable TUs.
//
// Philox layout.  A Group holds eight blocks as four vectors c0..c3: lane j
// of c<w> carries word w of block j in its LOW dword.  The high dwords hold
// whatever the last op left there (a product's high half, a key word's high
// half), and no such bit reaches an output, because
//   * vpmuludq reads only the low dwords of its operands;
//   * xor, vpternlogq and the 32-bit key add act dword by dword, so a high
//     dword never mixes into a low one;
//   * vpshufd, which does swap the dwords of a lane, is applied only where
//     both dwords are defined: to a full 64-bit product (bringing its high
//     half down) or to a 64-bit input word (bringing its upper word down);
//   * an output u64 is a blend of one vector's low dwords with another's
//     low dwords moved up, so every stored dword is a defined Philox word.
// The round is rng::detail::philox_round word for word, so each lane
// computes exactly the scalar block.
#include "simd/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <limits>

#include "rng/philox.hpp"

namespace lrb::simd::detail {
namespace {

using V = __m512i;
constexpr std::size_t kLanes = 8;   // Philox blocks per vector
constexpr std::size_t kGroups = 4;  // vectors in flight per main-loop step

inline V bcast(std::uint64_t x) {
  return _mm512_set1_epi64(static_cast<long long>(x));
}
inline V load(const std::uint64_t* p) { return _mm512_loadu_si512(p); }
inline void store(std::uint64_t* p, V x) { _mm512_storeu_si512(p, x); }

// Swaps the two dwords of every 64-bit lane.
inline V swap32(V x) { return _mm512_shuffle_epi32(x, _MM_PERM_CDAB); }

// The engine's u64: low dwords of `lo` | low dwords of `hi` << 32.
inline V pack(V lo, V hi) {
  return _mm512_mask_blend_epi32(0xAAAA, lo, swap32(hi));
}

struct Group {
  V c0, c1, c2, c3;
};

// The one Philox round body of this target (rng::detail::philox_round):
// {p1.hi ^ c1 ^ k0, p1.lo, p0.hi ^ c3 ^ k1, p0.lo} with p0 = M0 * c0 and
// p1 = M1 * c2.  The products stay whole; their high halves move down with
// vpshufd.  A caller that keeps only words 0-1 leaves the last round's
// c2/c3 dead, and the compiler drops the M0 product with them.
inline void philox_round(Group& b, V k0, V k1) {
  const V p0 = _mm512_mul_epu32(b.c0, bcast(rng::detail::kPhiloxM0));
  const V p1 = _mm512_mul_epu32(b.c2, bcast(rng::detail::kPhiloxM1));
  b.c0 = _mm512_ternarylogic_epi64(swap32(p1), b.c1, k0, 0x96);  // xor3
  b.c1 = p1;
  b.c2 = _mm512_ternarylogic_epi64(swap32(p0), b.c3, k1, 0x96);
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
template <class Step>
inline std::size_t sweep(std::size_t n, Step step) {
  std::size_t i = 0;
  for (; i + kGroups * kLanes <= n; i += kGroups * kLanes) {
    step.template operator()<kGroups>(i);
  }
  for (; i + kLanes <= n; i += kLanes) step.template operator()<1>(i);
  return i;
}

void philox_words_counter_range_avx512(std::uint64_t seed,
                                       std::uint64_t stream,
                                       std::uint64_t counter0,
                                       std::uint64_t* out,
                                       std::size_t nblocks) {
  const RoundKeys rk(seed);
  const V s_lo = bcast(stream);
  const V s_hi = bcast(stream >> 32);
  const V lane = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  // Interleave (lo, hi) per block into the engine's word order.
  const V first = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
  const V second = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
  const std::size_t done = sweep(nblocks, [&]<std::size_t G>(std::size_t i) {
    Group b[G];
    for (std::size_t g = 0; g < G; ++g) {
      // Full 64-bit counters, wrapping mod 2^64 like the engine's.
      const V ctr = _mm512_add_epi64(bcast(counter0 + i + g * kLanes), lane);
      b[g] = {ctr, swap32(ctr), s_lo, s_hi};
    }
    for (int r = 0; r < 10; ++r) {
      for (Group& x : b) philox_round(x, rk.k0[r], rk.k1[r]);
    }
    for (std::size_t g = 0; g < G; ++g) {
      const V lo = pack(b[g].c0, b[g].c1);
      const V hi = pack(b[g].c2, b[g].c3);
      std::uint64_t* o = out + 2 * (i + g * kLanes);
      store(o, _mm512_permutex2var_epi64(lo, first, hi));
      store(o + kLanes, _mm512_permutex2var_epi64(lo, second, hi));
    }
  });
  if (done < nblocks) {
    philox_words_counter_range_scalar(seed, stream, counter0 + done,
                                      out + 2 * done, nblocks - done);
  }
}

void philox_bits_streams_avx512(std::uint64_t seed, std::uint64_t counter,
                                const std::uint64_t* streams,
                                std::uint64_t* out, std::size_t n) {
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
      const V p1 = _mm512_mul_epu32(s, m1);
      b[g] = {_mm512_xor_si512(swap32(p1), c1_k0), p1,
              _mm512_xor_si512(swap32(s), p0hi_k1), bcast(p0)};
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

void philox_bits_keyed_avx512(const std::uint64_t* seeds,
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
    // GCC keeps this loop rolled unless told; unrolled, round 10 loses its
    // dead M0 products and the kernel measured ~12% faster.
#pragma GCC unroll 10
    for (int r = 0; r < 10; ++r) {
      for (std::size_t g = 0; g < G; ++g) {
        philox_round(b[g], k0[g], k1[g]);
        k0[g] = _mm512_add_epi32(k0[g], w0);
        k1[g] = _mm512_add_epi32(k1[g], w1);
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

void fill_u01_from_bits_avx512(const std::uint64_t* bits, double* out,
                               std::size_t n) {
  const std::size_t main = n & ~std::size_t{7};
  const __m512i one = _mm512_set1_epi64(1);
  const __m512d scale = _mm512_set1_pd(0x1.0p-53);
  for (std::size_t i = 0; i < main; i += 8) {
    const __m512i b = _mm512_loadu_si512(bits + i);
    const __m512i v = _mm512_add_epi64(_mm512_srli_epi64(b, 11), one);
    // AVX-512DQ converts u64 -> f64 directly; exact for v <= 2^53.
    _mm512_storeu_pd(out + i, _mm512_mul_pd(_mm512_cvtepu64_pd(v), scale));
  }
  if (main < n) fill_u01_from_bits_scalar(bits + main, out + main, n - main);
}

double bound_pass_avx512(const double* u, const double* inv_f, double* ub,
                         std::size_t n) {
  const std::size_t main = n & ~std::size_t{7};
  const __m512d one = _mm512_set1_pd(1.0);
  __m512d vmax = _mm512_set1_pd(-std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < main; i += 8) {
    const __m512d b = _mm512_mul_pd(
        _mm512_sub_pd(_mm512_loadu_pd(u + i), one), _mm512_loadu_pd(inv_f + i));
    _mm512_storeu_pd(ub + i, b);
    vmax = _mm512_max_pd(vmax, b);
  }
  double block_max = _mm512_reduce_max_pd(vmax);
  if (main < n) {
    const double tail =
        bound_pass_scalar(u + main, inv_f + main, ub + main, n - main);
    if (tail > block_max) block_max = tail;
  }
  return block_max;
}

constexpr Ops kAvx512Ops = {
    "avx512",
    Target::kAvx512,
    &philox_words_counter_range_avx512,
    &philox_bits_streams_avx512,
    &philox_bits_keyed_avx512,
    &fill_u01_from_bits_avx512,
    &bound_pass_avx512,
};

}  // namespace

const Ops* avx512_ops() noexcept { return &kAvx512Ops; }

}  // namespace lrb::simd::detail

#else  // !(__AVX512F__ && __AVX512DQ__)

namespace lrb::simd::detail {
const Ops* avx512_ops() noexcept { return nullptr; }
}  // namespace lrb::simd::detail

#endif
