// Segmented bound pass: one full-width SIMD sweep over a tile of ragged
// wheel segments.
//
// The WheelSet draw engine (core/wheel_set.hpp) concatenates many small
// wheels' bid streams into one dense tile so the vector kernels see full
// blocks even when every wheel is 8 items wide.  The tile-wide stages are
// elementwise (bits -> (0,1], then the (u - 1) * (1/f) bound), so running
// them across segment boundaries is bit-identical to calling the kernels
// once per segment — a wheel straddling a lane, a tile boundary, or both
// cannot change a single output bit.  The per-segment maxima computed here
// generalize the fixed-size block skip of DeterministicDrawKernel to ragged
// boundaries: a segment whose maximum bound fails the caller's gate provably
// loses and its logs are skipped wholesale (core/bid_filter.hpp owns the
// proof).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "simd/dispatch.hpp"

namespace lrb::simd {

/// One ragged slice of a tile: `len` consecutive elements starting at tile
/// position `begin`.  A segment never spans tiles; a wheel larger than the
/// remaining tile capacity is split into several segments by the caller.
struct Segment {
  std::size_t begin = 0;
  std::size_t len = 0;
};

/// Runs the bits -> (0,1] conversion and the bound pass over the WHOLE tile
/// [0, n) in two dispatched calls — full lane occupancy regardless of how
/// small the individual segments are — then reduces ub over each segment:
/// seg_max[s] = max(ub[segs[s].begin .. + len)), -inf for an empty segment.
/// Every stage is elementwise and max is exact/order-independent for the
/// never-NaN inputs the bid pipeline feeds it, so u, ub, and seg_max are
/// bit-identical to per-segment kernel invocations on every dispatch target.
///
/// seg_max == nullptr skips the reduction pass.  A consumer that gates
/// elementwise anyway (bid_filter::RecordScan's per-element `ub > gate`
/// check) gets nothing from segment-level maxima on fresh races — for the
/// dominant one-segment-per-draw shape the reduction would re-read every
/// bound it just wrote — so the hot caller opts out and keeps the filter's
/// work-skipping at the element level, where it is exactly as strong.
inline void segmented_bound_pass(const Ops& ops, const std::uint64_t* bits,
                                 const double* inv_f, double* u, double* ub,
                                 std::size_t n, const Segment* segs,
                                 std::size_t nsegs, double* seg_max) {
  ops.fill_u01_from_bits(bits, u, n);
  (void)ops.bound_pass(u, inv_f, ub, n);
  if (seg_max == nullptr) return;
  for (std::size_t s = 0; s < nsegs; ++s) {
    double m = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < segs[s].len; ++j) {
      const double b = ub[segs[s].begin + j];
      if (b > m) m = b;
    }
    seg_max[s] = m;
  }
}

}  // namespace lrb::simd
