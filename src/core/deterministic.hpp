// Counter-based deterministic parallel bidding.
//
// select_bidding_parallel (logarithmic_bidding.hpp) is exact for every lane
// count but consumes per-lane RNG streams, so the *specific* winner of draw
// t depends on how many lanes ran.  For simulation workloads that must
// replay bit-identically across machines, DeterministicBidder derives the
// uniform for (draw t, item i) from a Philox block keyed by (seed, t, i):
// a pure function, so serial and parallel evaluation — with any lane count —
// return the same winner.
//
// Cost: one Philox4x32-10 block per positive-fitness item per draw, which
// the SIMD engine computes one block per 64-bit lane, 8 (AVX-512) or 4
// (AVX2) per vector.  Those blocks are still 83-84% of a keyed draw on
// perfbench's replay_1m, and a keyed draw costs 0.8-1.6x a draw_many stream
// draw (bench_json's philox_cost_vs_draw_many; 1.2-1.3x at n=1e6 dense).
//
// DeterministicDrawKernel, below, is the batched single-wheel kernel of both
// contracts: one pack and one block loop serve the keyed draws and the
// stream (engine-word) draws of core/draw_many.hpp and lrb::dist.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/math.hpp"
#include "core/bid_filter.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/deterministic_bid.hpp"
#include "rng/uniform.hpp"
#include "simd/dispatch.hpp"

namespace lrb::core {

class DeterministicBidder {
 public:
  explicit DeterministicBidder(std::uint64_t seed) noexcept : seed_(seed) {}

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::uint64_t next_draw_id() const noexcept { return draw_; }

  /// Positions the bidder at an absolute draw id (replay support).
  void seek(std::uint64_t draw_id) noexcept { draw_ = draw_id; }

  /// Serial selection for the current draw id; advances the draw counter.
  [[nodiscard]] std::size_t select(std::span<const double> fitness) {
    (void)checked_fitness_total(fitness);
    const std::uint64_t t = draw_++;
    return best_in_range(fitness, t, 0, fitness.size()).index;
  }

  /// Parallel selection; bit-identical to the serial path for any lane count.
  [[nodiscard]] std::size_t select(parallel::ThreadPool& pool,
                                   std::span<const double> fitness) {
    (void)checked_fitness_total(fitness);
    const std::uint64_t t = draw_++;
    const std::size_t lanes = pool.lanes();
    std::vector<Best> partial(lanes);
    pool.parallel_for(fitness.size(), [&](parallel::Range r, std::size_t lane) {
      partial[lane] = best_in_range(fitness, t, r.begin, r.end);
    });
    Best overall;  // bid = -inf
    for (const Best& b : partial) {
      // Ascending lane order covers ascending index ranges: strict `>`
      // keeps the smallest index on (measure-zero) ties, matching serial.
      if (b.found && (!overall.found || b.bid > overall.bid)) overall = b;
    }
    LRB_ASSERT(overall.found, "positive total fitness implies at least one bid");
    return overall.index;
  }

  /// The bid item i would place in draw t.  Exposed for tests (determinism
  /// and distribution checks hit this directly).
  [[nodiscard]] double bid_for(std::uint64_t t, std::size_t item,
                               double fitness) const noexcept {
    return rng::deterministic_bid(seed_, t, item, fitness);
  }

 private:
  struct Best {
    double bid = -std::numeric_limits<double>::infinity();
    std::size_t index = 0;
    bool found = false;
  };

  [[nodiscard]] Best best_in_range(std::span<const double> fitness,
                                   std::uint64_t t, std::size_t begin,
                                   std::size_t end) const noexcept {
    Best best;
    for (std::size_t i = begin; i < end; ++i) {
      if (fitness[i] <= 0.0) continue;
      const double bid = bid_for(t, i, fitness[i]);
      if (!best.found || bid > best.bid) {
        best.bid = bid;
        best.index = i;
        best.found = true;
      }
    }
    return best;
  }

  std::uint64_t seed_;
  std::uint64_t draw_ = 0;
};

/// The single-wheel filtered bid kernel, for both contracts: one packed
/// active set and one block loop, fed by either bit stage.
///
/// Construction hoists everything loop-invariant out of the draws —
/// validation once, positive-fitness indices packed into an active set (a
/// draw touches k items with no zero-test branch), reciprocals 1/f cached
/// for the bound pass.  A draw then runs the paper's one race a block at a
/// time: raw bits, the exact bits -> (0,1] conversion and the bound
/// (u - 1) * (1/f) on the runtime-dispatched SIMD engine (simd/dispatch.hpp),
/// then the record-breaking filter of core/bid_filter.hpp, which pays
/// std::log only for the O(log k) expected bound survivors and can skip work
/// but never change a winner.  The two contracts differ only in where the
/// bits come from:
///
///   * keyed, draw_scored(seed, t): Philox blocks keyed (seed, t, global
///     item), generated N lanes at a time.  A pure function of (seed, t,
///     values), bit-identical to the unfiltered scan DeterministicBidder
///     performs for any lane or rank count (tests/core/deterministic_test.cpp);
///   * stream, draw_scored(gen): exactly active_count() engine words per
///     draw in index order, so a loop of draws equals a loop of
///     select_bidding() calls index for index and leaves the engine in the
///     same state (tests/core/draw_many_test.cpp).
///
/// `index_base` shifts the item ids: a kernel over a shard [base, base + len)
/// bids with the GLOBAL Philox stream (seed, t, base + j) and reports global
/// indices, which is precisely what makes dist::distributed_bidding_
/// deterministic partition-invariant — the bid of global item i is the same
/// no matter which rank owns it.  The draws are const and allocation-free,
/// so one kernel serves any number of threads (the keyed draw advances no
/// state; the stream draw advances only the caller's engine).
///
/// A kernel is built per call (core/batch.cpp, core/draw_many.hpp) or kept:
/// dist::ShardedFitness owns one per shard and patches it through set() on
/// every point update, so a distributed batch of either contract reads a
/// pack that is already there instead of re-packing the shard.  set() keeps
/// the active set in ascending index order — the scan order, and with it the
/// first-maximum tie rule and every winner, is exactly what a fresh build
/// over the patched block would have.
class DeterministicDrawKernel {
 public:
  /// Winner of one draw with its actual bid — what a distributed rank ships
  /// into an argmax-allreduce.
  struct Scored {
    double bid = -std::numeric_limits<double>::infinity();
    std::uint64_t index = 0;  ///< global index (index_base + block position)
  };

  /// Tag for the build that skips validation (see the constructor below).
  struct Prevalidated {};

  /// Validates once (finite, non-negative, positive total — the uniform
  /// selector error surface) and packs the active set.  O(n) build; every
  /// draw is O(k) with k = active_count().
  explicit DeterministicDrawKernel(std::span<const double> fitness,
                                   std::uint64_t index_base = 0)
      : index_base_(index_base), size_(fitness.size()) {
    (void)checked_fitness_total(fitness);
    pack(fitness, count_nonzero(fitness));
  }

  /// The same pack for an owner that already validated `fitness` and counted
  /// its `positive_count` positive entries (dist::ShardedFitness keeps both
  /// per shard).  The block may hold no positive entry: such a kernel cannot
  /// draw until set() gives it one.
  DeterministicDrawKernel(Prevalidated, std::span<const double> fitness,
                          std::uint64_t index_base, std::size_t positive_count)
      : index_base_(index_base), size_(fitness.size()) {
    pack(fitness, positive_count);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Number of positive-fitness items ("k" in the paper's Theorem 1).
  [[nodiscard]] std::size_t active_count() const noexcept { return active_.size(); }

  /// Point update: item `global_index` (in [index_base, index_base + size))
  /// now has fitness `f` (finite, >= 0).  The slot is found by binary search
  /// over the sorted active set.  A re-weight rewrites f and 1/f in place,
  /// O(log k); a zero <-> positive flip inserts or erases the slot in index
  /// order, an O(k) move.  Either way the kernel equals a fresh build over
  /// the updated block.  Driving every item to zero is legal; draws then
  /// need a positive item first.
  void set(std::uint64_t global_index, double f) {
    LRB_REQUIRE(global_index >= index_base_ &&
                    global_index - index_base_ < size_,
                InvalidArgumentError,
                "DeterministicDrawKernel::set: index outside the block");
    LRB_REQUIRE(std::isfinite(f) && f >= 0.0, InvalidFitnessError,
                "DeterministicDrawKernel::set: fitness must be finite and "
                "non-negative (value " + detail::fitness_value_str(f) + ")");
    const auto it = std::lower_bound(active_.begin(), active_.end(), global_index);
    const auto pos = it - active_.begin();
    const bool present = it != active_.end() && *it == global_index;
    if (present && f > 0.0) {
      f_[pos] = f;
      inv_f_[pos] = bid_filter::bound_reciprocal(f);
    } else if (present) {
      active_.erase(it);
      f_.erase(f_.begin() + pos);
      inv_f_.erase(inv_f_.begin() + pos);
    } else if (f > 0.0) {
      active_.insert(it, global_index);
      f_.insert(f_.begin() + pos, f);
      inv_f_.insert(inv_f_.begin() + pos, bid_filter::bound_reciprocal(f));
    }
  }

  /// Keyed draw `t`: argmax over the active set of the counter-based bids
  /// rng::deterministic_bid(seed, t, global index, f).  Pure function of
  /// (seed, t, fitness block) — thread-safe, no state advanced.
  [[nodiscard]] Scored draw_scored(std::uint64_t seed, std::uint64_t t) const {
    const simd::Ops& ops = simd::ops();
    const bid_filter::RecordScan race = race_blocks(
        [&](std::size_t start, std::uint64_t* bits, std::size_t len) {
          ops.philox_bits_streams(seed, t, active_.data() + start, bits, len);
        });
    LRB_OBS_COUNTER_ADD("lrb_core_det_draws_total", 1);
    LRB_OBS_COUNTER_ADD("lrb_core_det_log_evals_total", race.log_evals);
    LRB_OBS_COUNTER_ADD("lrb_core_det_filter_skips_total",
                        active_count() - race.log_evals);
    return Scored{race.best, active_[race.best_pos]};
  }

  /// Winner index only (serial/parallel batch selection).
  [[nodiscard]] std::size_t draw_one(std::uint64_t seed, std::uint64_t t) const {
    return static_cast<std::size_t>(draw_scored(seed, t).index);
  }

  /// Stream draw: one engine word per active item, in index order, through
  /// rng::fill_bits (SIMD counter-range Philox for rng::PhiloxRng) — the
  /// same uniforms, bids and winner as one select_bidding() call.
  template <rng::Engine64 G>
  [[nodiscard]] Scored draw_scored(G&& gen) const {
    const bid_filter::RecordScan race =
        race_blocks([&](std::size_t, std::uint64_t* bits, std::size_t len) {
          rng::fill_bits(gen, std::span<std::uint64_t>(bits, len));
        });
    LRB_OBS_COUNTER_ADD("lrb_core_draws_total", 1);
    LRB_OBS_COUNTER_ADD("lrb_core_log_evals_total", race.log_evals);
    LRB_OBS_COUNTER_ADD("lrb_core_filter_skips_total",
                        active_count() - race.log_evals);
    return Scored{race.best, active_[race.best_pos]};
  }

  template <rng::Engine64 G>
  [[nodiscard]] std::size_t draw_one(G&& gen) const {
    return static_cast<std::size_t>(draw_scored(gen).index);
  }

 private:
  /// Per-draw scratch granularity: three stack blocks (bits, u, ub) of 2 KiB
  /// each, resident in L1 — the draws stay const and allocation-free.
  static constexpr std::size_t kBlock = 256;

  /// The one block loop of both contracts.  `fill(start, bits, len)` writes
  /// the raw bits of active slots [start, start + len); everything after it
  /// is shared.
  template <typename FillBits>
  [[nodiscard]] bid_filter::RecordScan race_blocks(FillBits&& fill) const {
    const std::size_t k = f_.size();
    const simd::Ops& ops = simd::ops();
    alignas(64) std::uint64_t bits[kBlock];
    alignas(64) double u[kBlock];
    alignas(64) double ub[kBlock];
    bid_filter::RecordScan race;
    for (std::size_t start = 0; start < k; start += kBlock) {
      const std::size_t len = std::min(kBlock, k - start);
      fill(start, bits, len);
      ops.fill_u01_from_bits(bits, u, len);
      // bid <= (u - 1) * (1/f) because log(u) <= u - 1 and 1/f > 0; one
      // sub+mul+max per item decides whether the std::log is worth paying.
      const double block_max =
          ops.bound_pass(u, inv_f_.data() + start, ub, len);
      if (race.skip_chunk(block_max)) continue;
      // Exact log(u)/f bids for the rare bound survivors, first-maximum-wins.
      race.scan(u, ub, f_.data() + start, start, len);
    }
    LRB_ASSERT(race.found, "positive total fitness implies at least one bid");
    return race;
  }

  /// The one packing loop of both constructors: exactly `positive_count`
  /// slots, in ascending index order.
  void pack(std::span<const double> fitness, std::size_t positive_count) {
    active_.reserve(positive_count);
    f_.reserve(positive_count);
    inv_f_.reserve(positive_count);
    for (std::size_t i = 0; i < fitness.size(); ++i) {
      if (!(fitness[i] > 0.0)) continue;
      active_.push_back(index_base_ + i);
      f_.push_back(fitness[i]);
      inv_f_.push_back(bid_filter::bound_reciprocal(fitness[i]));
    }
    LRB_ASSERT(active_.size() == positive_count,
               "positive count must match the block");
    // Active-set density: items_total vs active_items_total gives the mean
    // density of the wheels this process actually built.
    LRB_OBS_COUNTER_ADD("lrb_core_kernel_builds_total", 1);
    LRB_OBS_COUNTER_ADD("lrb_core_kernel_items_total", size_);
    LRB_OBS_COUNTER_ADD("lrb_core_kernel_active_items_total", active_.size());
  }

  std::uint64_t index_base_ = 0;
  std::size_t size_ = 0;
  std::vector<std::uint64_t> active_;  // global indices of positive items
  std::vector<double> f_;              // fitness, packed over the active set
  std::vector<double> inv_f_;          // cached reciprocals for the bound
};

}  // namespace lrb::core
