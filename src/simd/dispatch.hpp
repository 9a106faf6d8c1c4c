// Runtime-dispatched SIMD kernels for the bid hot paths.
//
// The selection hot loops are embarrassingly data-parallel — Philox4x32-10
// blocks over consecutive counters or per-item streams (pure integer ops),
// the bits -> (0,1] conversion, and the (u - 1) * (1/f) bound pass of the
// record-breaking filter — yet which vector ISA the host offers is only
// known at runtime.  This module compiles each kernel three times (portable
// scalar, AVX2, AVX-512; the vector translation units carry their own
// -m flags and are guarded by cpuid before selection) and publishes ONE
// table of function pointers, chosen once per process:
//
//   * by cpuid, best-first (avx512 > avx2 > scalar), or
//   * by the LRB_SIMD environment variable ("scalar" | "avx2" | "avx512" |
//     "auto"), which pins the table for A/B benchmarking and the CI
//     dispatch matrix — an unavailable request warns and falls back to auto.
//
// The contract every target must honor (enforced by tests/simd): kernels are
// BIT-IDENTICAL to the scalar reference.  The Philox kernels are integer-only
// so equality holds by construction; the two floating-point kernels use only
// exactly-rounded IEEE ops in the same per-element order (sub, mul, max —
// never a fused multiply-add), so lane width cannot change a single bit of
// output.  Consumers (core/deterministic.hpp, core/wheel_set.cpp,
// rng/uniform.hpp) therefore produce the same indices and consume the same
// engine state on every dispatch target.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lrb::simd {

/// Dispatch targets, worst to best.  kScalar is always available.
enum class Target : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// One resolved kernel table.  All pointers are non-null in a published
/// table; n == 0 is legal for every kernel (no reads, no writes).
struct Ops {
  const char* name;  ///< "scalar" | "avx2" | "avx512"
  Target target;

  /// Philox4x32-10 over consecutive counters, fixed stream — the word
  /// sequence of rng::PhiloxRng: for block b in [counter0, counter0 +
  /// nblocks), out[2i] = u64_lo and out[2i + 1] = u64_hi of
  /// philox_block_at(seed, counter0 + i, stream).  Counters take the same
  /// mod-2^64 wrap the engine's increment does.
  void (*philox_words_counter_range)(std::uint64_t seed, std::uint64_t stream,
                                     std::uint64_t counter0, std::uint64_t* out,
                                     std::size_t nblocks);

  /// Philox4x32-10 at a fixed counter over per-item streams — the
  /// deterministic bid stream: out[i] = philox_u64_at(seed, counter,
  /// streams[i]) (the low word, exactly what rng::deterministic_bits yields).
  void (*philox_bits_streams)(std::uint64_t seed, std::uint64_t counter,
                              const std::uint64_t* streams, std::uint64_t* out,
                              std::size_t n);

  /// Philox4x32-10 with per-element keys — the multi-tenant tile fill:
  /// out[i] = philox_u64_at(seeds[i], counters[i], streams[i]).  Where
  /// philox_bits_streams broadcasts one (seed, counter) per call, this
  /// variant carries all three key words per lane, so a WheelSet tile that
  /// concatenates many small wheels' bid chunks fills in ONE call at full
  /// lane occupancy instead of one under-filled call per wheel.
  void (*philox_bits_keyed)(const std::uint64_t* seeds,
                            const std::uint64_t* counters,
                            const std::uint64_t* streams, std::uint64_t* out,
                            std::size_t n);

  /// Bulk bits -> (0,1]: out[i] = rng::u01_open_closed_from_bits(bits[i]).
  /// Exact and branch-free on every target: ((bits >> 11) + 1) <= 2^53 is
  /// exactly representable, and the 2^-53 scale is a power of two.
  void (*fill_u01_from_bits)(const std::uint64_t* bits, double* out,
                             std::size_t n);

  /// The record-breaking filter's bound pass: ub[i] = (u[i] - 1.0) *
  /// inv_f[i], returning max(ub[0..n)) (-inf for n == 0).  Plain sub then
  /// mul — both exactly rounded, never contracted to an FMA — so the stored
  /// bounds and the maximum are bit-identical to the scalar loop; max is
  /// exact and order-independent for the never-NaN inputs the kernels feed
  /// it (u in (0,1], inv_f finite positive — see core/bid_filter.hpp).
  double (*bound_pass)(const double* u, const double* inv_f, double* ub,
                       std::size_t n);
};

/// The active table.  First call resolves it (cpuid + LRB_SIMD override) and
/// the result is cached for the life of the process; thread-safe.
[[nodiscard]] const Ops& ops() noexcept;

/// The table for a specific target, or nullptr when that target was not
/// compiled in or the running CPU lacks it.  ops_for(kScalar) never fails.
[[nodiscard]] const Ops* ops_for(Target target) noexcept;

/// Target / name of the active table (resolving it if needed).
[[nodiscard]] Target active_target() noexcept;
[[nodiscard]] const char* target_name() noexcept;

/// Re-points the active table at `target` for the rest of the process (or
/// until the next call).  Returns false — leaving the active table untouched
/// — when the target is unavailable.  This is the A/B hook tools/bench_json
/// uses to time scalar vs the best native target in one run; production
/// code selects via LRB_SIMD instead.  Not synchronized against concurrent
/// kernel launches: call from a quiescent point.
bool force_target(Target target) noexcept;

/// True when the running CPU can execute `target` (independent of whether
/// the kernels for it were compiled in).
[[nodiscard]] bool cpu_supports(Target target) noexcept;

}  // namespace lrb::simd
