// The record-breaking bid filter shared by the batched selection kernels.
//
// Both draw engines (DeterministicDrawKernel in deterministic.hpp, one
// wheel with stream or counter-based bits; WheelSet in wheel_set.hpp, many
// wheels tiled together) skip almost every std::log with the same bound:
// since log(u) <= u - 1 and 1/f > 0, an item's bid log(u)/f is bounded above
// by (u - 1) * (1/f) — one FMA — and the running maximum of an exponential
// race is beaten only O(log k) expected times per draw.  The filter is
// exact only because of two numerical guards, and THIS header is their
// single proof site:
//
//   * the gate is slackened by a relative margin (kGateRelax) that strictly
//     dominates the O(ulp) rounding of the FMA bound, so a skipped item's
//     true bid is provably below the current best — the filter can skip
//     work, never change a winner;
//   * 1/f rounds to +inf for subnormal f, which would poison the bound pass
//     with NaN/-inf; clamping to DBL_MAX (<= the true 1/f) still
//     over-approximates the bid — (u - 1) <= 0, so a SMALLER multiplier
//     yields a bound closer to 0 — keeping every bound finite and the
//     filter exact.
//
// Keeping the constant and both guards here means a future retuning cannot
// silently leave the two engines with different skip criteria.  The carried
// scan state itself (RecordScan below) lives here for the same reason: the
// single-wheel kernel and the WheelSet arena run the identical filtered
// argmax, possibly split across several calls when a wheel straddles a tile
// boundary — one definition, one tie rule.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>

namespace lrb::core::bid_filter {

/// Gate slack: ~1e-12 relative, >> 4 ulp of the bound arithmetic.
inline constexpr double kGateRelax = 1.0 + 1e-12;

/// The gate for a current best bid (bids are <= 0): slightly below best, so
/// the bound's rounding error can never skip a potential record-breaker.
[[nodiscard]] constexpr double gate_below(double best) noexcept {
  return best < 0.0 ? best * kGateRelax : best;
}

/// The cached multiplier for the bound pass: 1/f, clamped to DBL_MAX when
/// the reciprocal overflows (subnormal f).
[[nodiscard]] inline double bound_reciprocal(double fitness) noexcept {
  const double inv = 1.0 / fitness;
  return std::isfinite(inv) ? inv : std::numeric_limits<double>::max();
}

/// Carried state of one filtered record-breaking argmax — one draw's race.
///
/// The scan may be fed in any number of consecutive chunks (a kernel's
/// fixed-size blocks, or the ragged tile slices of a WheelSet draw that
/// straddles a tile boundary): because every stage upstream of the scan is
/// elementwise and the scan itself carries (best, gate, found) across calls,
/// the chunking is unobservable — the installed records, the final winner,
/// and the first-maximum-wins tie rule are identical to one contiguous pass.
///
/// `best_pos` is the position the caller passed as pos0 + j, i.e. an index
/// into whatever packed active set the caller scans; `log_evals` counts the
/// std::log calls actually paid (the filter's complement, for obs rollups).
struct RecordScan {
  double best = -std::numeric_limits<double>::infinity();
  double gate = -std::numeric_limits<double>::infinity();
  std::size_t best_pos = 0;
  bool found = false;
  std::size_t log_evals = 0;

  /// Whole chunk provably loses?  Then its logs can be skipped wholesale.
  /// (While !found every item must be visited so the first-install rule
  /// matches the unfiltered scan.)
  [[nodiscard]] bool skip_chunk(double chunk_max) const noexcept {
    return found && !(chunk_max > gate);
  }

  /// Evaluates one chosen item out of scan order — the WheelSet flush seeds
  /// a fresh race with the strongest-bound element, which is usually the
  /// winner, so the gate starts tight and most of the chunk's logs are
  /// skipped.  The install rule is position-aware (see scan), so probing
  /// cannot change the winner the in-order pass would have produced; the
  /// caller must still present the probed position to scan() or mask its
  /// bound, whichever is cheaper.
  void probe(double u, double f, std::size_t pos) noexcept {
    const double bid = std::log(u) / f;
    ++log_evals;
    install(bid, pos);
  }

  /// Scans `len` items: uniforms u[j], cached bounds ub[j] (from the SIMD
  /// bound pass), packed fitness f[j], occupying positions pos0 + j of the
  /// caller's active set.  Exact bid arithmetic: log(u)/f, identical to
  /// rng::log_bid / rng::deterministic_bid.
  ///
  /// The tie rule is smallest-position-wins, enforced by the explicit
  /// position compare in install(): for an in-order scan that compare can
  /// never fire (positions only grow), making this exactly the classic
  /// first-maximum-wins pass — but it also keeps the winner identical when
  /// a probe() visited some position early.
  void scan(const double* u, const double* ub, const double* f,
            std::size_t pos0, std::size_t len) noexcept {
    for (std::size_t j = 0; j < len; ++j) {
      if (found && !(ub[j] > gate)) continue;
      const double bid = std::log(u[j]) / f[j];
      ++log_evals;
      install(bid, pos0 + j);
    }
  }

 private:
  void install(double bid, std::size_t pos) noexcept {
    if (!found || bid > best || (bid == best && pos < best_pos)) {
      best = bid;
      best_pos = pos;
      found = true;
      gate = gate_below(best);
    }
  }
};

}  // namespace lrb::core::bid_filter
