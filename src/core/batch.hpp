// Batched selection: m independent draws (with replacement) from one
// fitness vector, with the strategy chosen by batch size.
//
//   m small : one draw_many() — one kernel build + m O(k) filtered passes
//   m large : one alias-table build + m O(1) draws — O(n + m)
//
// batch_select() picks the strategy from the measured crossover (bidding
// while m * k < n / alias_crossover_for(n)); both produce exact roulette
// marginals and the choice only affects speed.  A deterministic
// counter-based variant serves replay workloads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/math.hpp"
#include "core/alias_table.hpp"
#include "core/draw_many.hpp"
#include "core/logarithmic_bidding.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/philox.hpp"
#include "rng/uniform.hpp"

namespace lrb::core {

/// Strategy for a batch of draws.
enum class BatchStrategy {
  kAuto,     ///< pick by crossover heuristic
  kBidding,  ///< one draw_many() kernel, m filtered bidding passes
  kAlias,    ///< build alias table once, then m O(1) draws
};

/// Measured crossover factors: bidding wins while m * k stays under
/// n / alias_crossover_for(n).  Two regimes, both calibrated from
/// BENCH_selection.json's "crossover" array (measured break-even m* and the
/// implied factor n / (m* k) per config, so the calibration lives in the
/// artifact, not a commit message):
///
///   * small n (<= kSmallWheelCrossoverN): the multi-tenant regime the
///     WheelSet arena serves.  The v7 small-n rows (n in {256, 1024, 4096}
///     dense) measure m* ~= 1-2 — implied factors ~0.6-1.2 — because the
///     alias build is nearly free there while bidding still pays O(k) per
///     draw; 0.6 hands every batch beyond a single draw per wheel to
///     alias, where the old flat 0.35 kept bidding one near-break-even
///     batch size too long.
///   * large n: the v6-era rows stand — sparse rows imply 0.17-0.41 (the
///     vectorized bound pass keeps bidding competitive to m* ~= 57 at
///     n = 1e6 sparse) while dense rows degenerate to alias-from-m=1
///     (m* < 1, implied factor 1.9-3.6, because the kernel's O(n) build
///     alone exceeds the alias build).  No single factor satisfies both;
///     0.35 keeps the sparse side right and confines the dense mischoices
///     to m <= 2, where the two strategies cost within a few percent.
inline constexpr double kAliasCrossover = 0.35;        ///< large-n regime
inline constexpr double kAliasCrossoverSmallN = 0.6;   ///< n <= threshold
inline constexpr std::size_t kSmallWheelCrossoverN = 4'096;

/// The regime table, total over n: the factor resolve_batch_strategy uses
/// and tools/bench_json stamps next to every measured crossover row.
[[nodiscard]] constexpr double alias_crossover_for(std::size_t n) noexcept {
  return n <= kSmallWheelCrossoverN ? kAliasCrossoverSmallN : kAliasCrossover;
}

/// The kAuto decision, exposed so tooling (tools/bench_json) reports the
/// exact strategy batch_select would pick: bidding while the batch's
/// m * k bidding work stays under n / alias_crossover_for(n), alias beyond.
[[nodiscard]] inline BatchStrategy resolve_batch_strategy(
    std::span<const double> fitness, std::size_t m) noexcept {
  const std::size_t k = count_nonzero(fitness);
  const double bidding_work = static_cast<double>(m) * static_cast<double>(k);
  const double alias_work = static_cast<double>(fitness.size()) /
                            alias_crossover_for(fitness.size());
  // Crossover decision counters: the production record of which side of the
  // alias_crossover_for calibration real batches actually land on.
  if (bidding_work < alias_work) {
    LRB_OBS_COUNTER_ADD("lrb_core_crossover_bidding_total", 1);
    return BatchStrategy::kBidding;
  }
  LRB_OBS_COUNTER_ADD("lrb_core_crossover_alias_total", 1);
  return BatchStrategy::kAlias;
}

/// Draws `m` indices with replacement; out.size() == m.
///
/// Validation runs once per batch (the kernel/alias build), never per draw —
/// the m draws themselves are free of O(n) revalidation passes.
template <rng::Engine64 G>
std::vector<std::size_t> batch_select(std::span<const double> fitness,
                                      std::size_t m, G&& gen,
                                      BatchStrategy strategy = BatchStrategy::kAuto) {
  std::vector<std::size_t> out;
  if (m == 0) {
    (void)checked_fitness_total(fitness);  // same error surface as m > 0
    return out;
  }

  if (strategy == BatchStrategy::kAuto) {
    strategy = resolve_batch_strategy(fitness, m);
  }

  LRB_TRACE_SPAN_ARG("batch_select", m);
  if (strategy == BatchStrategy::kBidding) {
    LRB_OBS_COUNTER_ADD("lrb_core_batch_bidding_total", 1);
    out = draw_many(fitness, m, gen);  // validates once for the whole batch
  } else {
    LRB_OBS_COUNTER_ADD("lrb_core_batch_alias_total", 1);
    (void)checked_fitness_total(fitness);
    const AliasTable table(fitness);
    out.reserve(m);
    for (std::size_t t = 0; t < m; ++t) {
      out.push_back(table.select(gen));
    }
  }
  return out;
}

/// Deterministic batched draws: result depends only on (seed, fitness, m),
/// not on thread count; the pool overload returns the identical batch.
/// Draw t uses the counter-based bid stream (seed, t, item).
[[nodiscard]] std::vector<std::size_t> batch_select_deterministic(
    std::span<const double> fitness, std::size_t m, std::uint64_t seed);

[[nodiscard]] std::vector<std::size_t> batch_select_deterministic(
    parallel::ThreadPool& pool, std::span<const double> fitness, std::size_t m,
    std::uint64_t seed);

}  // namespace lrb::core
