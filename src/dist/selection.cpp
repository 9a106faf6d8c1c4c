#include "dist/selection.hpp"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/deterministic.hpp"
#include "dist/backend.hpp"
#include "obs/obs.hpp"
#include "rng/uniform.hpp"
#include "rng/xoshiro256.hpp"

namespace lrb::dist {

namespace {

constexpr double kNoBid = -std::numeric_limits<double>::infinity();
constexpr std::uint64_t kNoIndex = std::numeric_limits<std::uint64_t>::max();

/// Updates may legally drive every entry to zero; a draw from that state is
/// a user error and throws like every serial selector (common/math.hpp's
/// checked_fitness_total), not an internal-invariant abort.  Judged by the
/// exact positive counts, not by a floating-point total.
void require_positive_total(const ShardedFitness& shards) {
  bool any_positive = false;
  for (std::size_t r = 0; r < shards.ranks() && !any_positive; ++r) {
    any_positive = shards.positive_count(r) > 0;
  }
  LRB_REQUIRE(any_positive, InvalidFitnessError,
              "distributed selection requires at least one positive fitness");
}

/// The scaffolding both bidding batches share — validation, the p x B local
/// sub-race matrix (ranks with nothing positive ship kNoBid pairs), ONE
/// batched argmax-allreduce, winner extraction.  `fill_rank(r, kernel, rows)`
/// fills rank r's B (bid, global index) pairs from `kernel`, the one
/// ShardedFitness keeps for r; the bit stage it runs (engine words vs keyed
/// Philox) is the only thing the two paths do differently, which is also why
/// their ledgers are identical by construction.
template <typename FillRank>
BatchDrawResult bidding_batch_scaffold(const ShardedFitness& shards,
                                       std::size_t batch, const char* name,
                                       FillRank&& fill_rank) {
  require_positive_total(shards);
  LRB_REQUIRE(batch >= 1, InvalidArgumentError,
              std::string(name) + " requires batch >= 1");
  LRB_TRACE_SPAN_ARG(name, batch);
  LRB_OBS_COUNTER_ADD("lrb_dist_draws_total", batch);
  const Topology& topo = shards.topology();
  const std::size_t p = topo.ranks();

  // Sub-races run only for ranks this process embodies: all P on the
  // simulated machine, exactly one per process under a real backend — the
  // O(n/P) local compute a cluster buys.  Non-owned (and all-zero) ranks
  // contribute sentinel pairs that a real backend never puts on the wire.
  const CommBackend& backend = topo.backend();
  std::vector<std::vector<ArgMax>> local(
      p, std::vector<ArgMax>(batch, ArgMax{kNoBid, kNoIndex}));
  for (std::size_t r = 0; r < p; ++r) {
    if (!backend.owns_rank(r)) continue;
    if (shards.positive_count(r) == 0) continue;
    fill_rank(r, shards.shard_kernel(r), local[r]);
  }

  // The entire communication bill: ONE batched argmax-allreduce of B-pair
  // messages — ceil(log2 P) rounds for the whole batch.
  BatchDrawResult result;
  const std::vector<std::vector<ArgMax>> winners =
      allreduce_argmax_batch(topo, local, result.comm);
  result.indices.resize(batch);
  for (std::size_t t = 0; t < batch; ++t) {
    // A real bid can legitimately BE -inf (log(u)/f overflows for subnormal
    // f), so "did anyone bid" is judged by the index: bidding ranks ship a
    // genuine global index, silent ranks ship kNoIndex, and the argmax tie
    // rule (smaller index wins) lets a real -inf bid beat the sentinel.
    LRB_ASSERT(winners[0][t].index != kNoIndex,
               "positive total fitness implies at least one bid per draw");
    result.indices[t] = static_cast<std::size_t>(winners[0][t].index);
  }
  return result;
}

}  // namespace

DrawResult distributed_bidding(const ShardedFitness& shards,
                               const rng::SeedSequence& seeds) {
  // The single draw is the B == 1 case of the batched path: the local
  // sub-races consume the same uniforms in the same order, and a 1-pair
  // batched allreduce charges exactly what allreduce_argmax does.
  BatchDrawResult batch = distributed_bidding_batch(shards, 1, seeds);
  return DrawResult{batch.indices.front(), batch.comm};
}

DrawResult distributed_bidding(const ShardedFitness& shards,
                               std::uint64_t seed) {
  return distributed_bidding(shards, rng::SeedSequence(seed));
}

BatchDrawResult distributed_bidding_batch(const ShardedFitness& shards,
                                          std::size_t batch,
                                          const rng::SeedSequence& seeds) {
  // B local sub-races on every rank over the kernel ShardedFitness keeps for
  // its shard (nothing is packed here), decorrelated engine per rank,
  // exactly B uniforms consumed per positive local entry.
  return bidding_batch_scaffold(
      shards, batch, "distributed_bidding_batch",
      [&](std::size_t r, const core::DeterministicDrawKernel& kernel,
          std::vector<ArgMax>& rows) {
        rng::Xoshiro256StarStar gen(seeds.child(r));
        for (ArgMax& row : rows) {
          const auto won = kernel.draw_scored(gen);
          row = ArgMax{won.bid, won.index};
        }
      });
}

BatchDrawResult distributed_bidding_batch(const ShardedFitness& shards,
                                          std::size_t batch,
                                          std::uint64_t seed) {
  return distributed_bidding_batch(shards, batch, rng::SeedSequence(seed));
}

DrawResult distributed_bidding_deterministic(const ShardedFitness& shards,
                                             std::uint64_t seed,
                                             std::uint64_t draw_id) {
  BatchDrawResult batch =
      distributed_bidding_deterministic_batch(shards, 1, seed, draw_id);
  return DrawResult{batch.indices.front(), batch.comm};
}

BatchDrawResult distributed_bidding_deterministic_batch(
    const ShardedFitness& shards, std::size_t batch, std::uint64_t seed,
    std::uint64_t first_draw_id) {
  // B local sub-races per rank with COUNTER-BASED bids: the kernel bids
  // rng::deterministic_bid(seed, draw id, GLOBAL index, f) over its shard,
  // so rank r's sub-race winner is the max over r's slice of the very same
  // global bid table serial DeterministicBidder scans, and the argmax over
  // shards reconstructs the serial argmax exactly — for any P and any
  // partition (skipped all-zero ranks are absent from the serial scan too).
  // Identical collective to the stream batch: the deterministic contract
  // costs extra Philox compute, zero extra ledger.  The kernel is the one
  // ShardedFitness keeps patched across updates — nothing is packed here.
  return bidding_batch_scaffold(
      shards, batch, "distributed_bidding_deterministic_batch",
      [&](std::size_t, const core::DeterministicDrawKernel& kernel,
          std::vector<ArgMax>& rows) {
        for (std::size_t t = 0; t < rows.size(); ++t) {
          const core::DeterministicDrawKernel::Scored won =
              kernel.draw_scored(seed, first_draw_id + t);
          rows[t] = ArgMax{won.bid, won.index};
        }
      });
}

DrawResult DeterministicDistributedBidder::select(const ShardedFitness& shards) {
  DrawResult result = distributed_bidding_deterministic(shards, seed_, draw_);
  draw_ += 1;
  return result;
}

BatchDrawResult DeterministicDistributedBidder::select_batch(
    const ShardedFitness& shards, std::size_t batch) {
  BatchDrawResult result =
      distributed_bidding_deterministic_batch(shards, batch, seed_, draw_);
  draw_ += batch;
  return result;
}

DrawResult distributed_prefix_sum(const ShardedFitness& shards,
                                  const rng::SeedSequence& seeds) {
  require_positive_total(shards);
  LRB_TRACE_SPAN("distributed_prefix_sum");
  LRB_OBS_COUNTER_ADD("lrb_dist_prefix_draws_total", 1);
  const Topology& topo = shards.topology();
  const std::size_t p = topo.ranks();
  DrawResult result;

  // Each rank sums its own shard (no communication) — only ranks this
  // process embodies, so a real-backend process stays O(n/P); the
  // collectives read nothing else.
  const CommBackend& backend = topo.backend();
  std::vector<double> sums(p, 0.0);
  for (std::size_t r = 0; r < p; ++r) {
    if (backend.owns_rank(r)) sums[r] = shards.shard_sum(r);
  }

  // 1. Exclusive scan: every rank learns the CDF offset of its shard.
  const std::vector<double> offsets =
      exclusive_scan_sum(topo, sums, result.comm);

  // 2. Reduce the global total to the root, which draws the threshold
  //    t = u * total, u ~ Uniform[0,1).  `total` is the global sum only
  //    where the reduce tree rooted — everywhere on the simulated machine,
  //    at kRoot under a real backend (other processes hold partials, validly
  //    zero for zero shards) — so the positivity invariant and the only
  //    threshold anyone consumes are the root's; non-root thresholds are
  //    overwritten by the broadcast below.
  constexpr std::size_t kRoot = 0;
  const double total = reduce_sum(topo, sums, kRoot, result.comm);
  if (backend.owns_rank(kRoot)) {
    LRB_ASSERT(total > 0.0, "sharded fitness total must be positive");
  }
  rng::Xoshiro256StarStar gen(seeds.child("prefix-threshold"));
  const double threshold = rng::u01_closed_open(gen) * total;

  // 3. Broadcast the threshold so every rank can test ownership locally.
  const std::vector<double> thresholds =
      broadcast(topo, threshold, kRoot, result.comm);

  // 4. Ownership test + local inverse-CDF walk (both rank-local; the walk
  //    runs only on the owner).  Extracted into prefix_sum_locate so the
  //    threshold edges — t = 0 with leading zero cells, t exactly on a shard
  //    boundary — are pinned by direct tests.  Every rank holds the same
  //    broadcast threshold; the simulation evaluates the step once.
  const PrefixLocation located = prefix_sum_locate(shards, offsets, thresholds[0]);

  // 5. Publish the winner: a final argmax-allreduce (2-word pairs) gives
  //    every rank the selected index, matching what bidding delivers.
  std::vector<ArgMax> claim(p, ArgMax{kNoBid, kNoIndex});
  claim[located.owner] = ArgMax{1.0, static_cast<std::uint64_t>(located.index)};
  const std::vector<ArgMax> winners = allreduce_argmax(topo, claim, result.comm);
  result.index = static_cast<std::size_t>(winners[0].index);
  return result;
}

PrefixLocation prefix_sum_locate(const ShardedFitness& shards,
                                 std::span<const double> offsets,
                                 double threshold) {
  const std::size_t p = shards.ranks();
  LRB_REQUIRE(offsets.size() == p, InvalidArgumentError,
              "prefix_sum_locate: one offset per rank required");
  LRB_REQUIRE(threshold >= 0.0, InvalidArgumentError,
              "prefix_sum_locate: threshold must be non-negative");

  // Ownership: the owner is the non-empty rank whose interval
  // [offset, offset + sum) contains the threshold.  Resolved as "LAST
  // non-empty rank with offset <= threshold", which is the same rank in
  // exact arithmetic and never gaps or double-claims under rounding: empty
  // and all-zero shards (no positive entry, so their sum is exactly 0.0) can
  // never own, and a threshold exactly on a shard boundary belongs to the
  // rank STARTING there, matching the half-open intervals.
  std::size_t owner = kNoIndex;
  for (std::size_t r = 0; r < p; ++r) {
    if (shards.positive_count(r) > 0 && offsets[r] <= threshold) owner = r;
  }
  LRB_ASSERT(owner != kNoIndex, "threshold below total implies an owner");

  // Local inverse CDF on the owner: walk the shard until the running sum
  // crosses the threshold.  Zero-fitness cells add nothing and never update
  // `selected`, so no edge — t = 0, boundary hits, rounding overshoot past
  // the shard's own mass — can select a zero-fitness index; overshoot
  // saturates at the owner's last positive cell.
  const parallel::Range range = shards.shard_range(owner);
  const std::span<const double> shard = shards.shard(owner);
  double cumulative = offsets[owner];
  std::uint64_t selected = kNoIndex;
  for (std::size_t j = 0; j < shard.size(); ++j) {
    if (shard[j] <= 0.0) continue;
    cumulative += shard[j];
    selected = static_cast<std::uint64_t>(range.begin + j);
    if (cumulative > threshold) break;
  }
  LRB_ASSERT(selected != kNoIndex, "owning shard holds a positive entry");
  return PrefixLocation{owner, static_cast<std::size_t>(selected)};
}

DrawResult distributed_prefix_sum(const ShardedFitness& shards,
                                  std::uint64_t seed) {
  return distributed_prefix_sum(shards, rng::SeedSequence(seed));
}

}  // namespace lrb::dist
