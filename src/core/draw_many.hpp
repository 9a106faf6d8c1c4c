// Batched logarithmic bidding: the multi-draw hot path.
//
// GA/ACO generations draw a whole population (m = hundreds..thousands) from
// one fitness vector, and a loop of select_bidding() calls pays, per draw,
// a full O(n) validation pass, a zero-skip branch per item, one std::log
// and one divide per positive item.  draw_many() builds one
// DeterministicDrawKernel (core/deterministic.hpp) instead — validation
// once per batch, the positive items packed into an active set with cached
// reciprocals — and runs the m draws through its stream bit stage: engine
// words a block at a time (rng::fill_bits), the SIMD bits -> (0,1] and
// bound passes, and the record-breaking filter that skips almost every
// std::log (core/bid_filter.hpp, the shared proof site).  The filter can
// skip work but never change a winner, so the produced indices and the
// engine state match a loop of select_bidding() calls exactly (same
// uniforms, in the same order, same log(u)/f bid arithmetic, same
// first-maximum-wins tie rule).
//
// batch_select() (core/batch.hpp) routes its bidding strategy through
// draw_many(); lrb::dist runs the same kernel's stream draws over the
// per-shard kernels ShardedFitness keeps (dist/selection.cpp).
#pragma once

#include <span>
#include <vector>

#include "core/deterministic.hpp"
#include "obs/obs.hpp"
#include "rng/uniform.hpp"

namespace lrb::core {

/// m batched draws with replacement; exact roulette marginals, and the
/// returned indices (plus the engine state afterwards) match m consecutive
/// select_bidding() calls — exactly m * k engine steps.
template <rng::Engine64 G>
[[nodiscard]] std::vector<std::size_t> draw_many(std::span<const double> fitness,
                                                 std::size_t m, G&& gen) {
  const DeterministicDrawKernel kernel(fitness);
  LRB_TRACE_SPAN_ARG("draw_many", m);
  LRB_OBS_HISTOGRAM_RECORD("lrb_core_batch_size", m);
  std::vector<std::size_t> out;
  out.reserve(m);
  for (std::size_t t = 0; t < m; ++t) out.push_back(kernel.draw_one(gen));
  return out;
}

}  // namespace lrb::core
