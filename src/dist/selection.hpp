// Distributed roulette wheel selection over sharded fitness vectors.
//
// This is the paper's Section III contrast replayed on a message-passing
// machine.  Both algorithms select global index i with probability
// F_i = f_i / sum f, and both finish in O(log P) communication rounds — but
// their bills differ the same way the PRAM cell counts did:
//
//   * distributed_bidding — every rank runs the serial logarithmic-bidding
//     sub-race over its own shard (pure local compute), then ONE
//     allreduce_argmax of a 2-word (bid, global index) pair crowns the
//     winner on every rank.  The distributed echo of the paper's "single
//     O(1) shared cell".
//
//   * distributed_prefix_sum — the classical pipeline the paper's baseline
//     implies: exclusive scan of shard sums (shard offsets), reduce of the
//     global total to a root, root draws the threshold u * total, broadcast
//     of the threshold, a local inverse-CDF walk on the owning rank, and a
//     final argmax-allreduce to publish the winner everywhere (parity with
//     bidding: every rank must learn the result).
//
//   * distributed_bidding_deterministic — the same bidding dataflow with
//     counter-based (Philox) bids keyed by (seed, draw id, global index):
//     P-invariant and partition-invariant replay, bit-identical to serial
//     core::DeterministicBidder, for the identical communication bill.
//
// Exactness: bidding inherits select_bidding's proof — per-shard maxima of
// independent log(u)/f_i bids are themselves exponential-race winners, and
// the argmax over shards is the global race, so Pr[i] = F_i with no
// approximation.  The prefix pipeline is the standard inverse-CDF argument.
// Both are chi-square-validated in tests/dist/selection_test.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dist/collectives.hpp"
#include "dist/sharding.hpp"
#include "dist/topology.hpp"
#include "rng/seed.hpp"

namespace lrb::dist {

/// One distributed selection draw: the agreed winner plus the communication
/// the draw cost.  `index` is identical on every rank by construction.
struct DrawResult {
  std::size_t index = 0;  ///< selected global index, known to all ranks
  CommLedger comm;        ///< rounds/messages/words/critical path of the draw
};

/// A batch of B distributed selection draws that shared ONE batched
/// argmax-allreduce.  indices[t] is draw t's winner, identical on every
/// rank; `comm` is the bill of the whole batch — ceil(log2 P) rounds total,
/// i.e. ceil(log2 P)/B rounds per draw.
struct BatchDrawResult {
  std::vector<std::size_t> indices;  ///< B selected global indices
  CommLedger comm;                   ///< bill of the whole batch
};

/// Logarithmic random bidding over shards: local sub-race per rank, one
/// argmax-allreduce.  Rank r draws its bids from engine seeds.child(r), so
/// streams are decorrelated and a draw consumes exactly one uniform per
/// positive local entry (as the serial selector does).
[[nodiscard]] DrawResult distributed_bidding(const ShardedFitness& shards,
                                             const rng::SeedSequence& seeds);

/// Convenience overload seeding the sequence from a bare master seed.
[[nodiscard]] DrawResult distributed_bidding(const ShardedFitness& shards,
                                             std::uint64_t seed);

/// B batched bidding draws (B >= 1), with replacement, amortizing the
/// allreduce round latency: every rank runs B local sub-races over its
/// shard (one core::DrawManyKernel, B filtered O(k_r) passes, consuming
/// exactly B uniforms per positive local entry from engine seeds.child(r)),
/// then all B (bid, index) winners ride ONE allreduce_argmax_batch of
/// 2B-word messages.
///
/// Joint distribution: the B draws are independent, each exactly
/// F_i-distributed (chi-square-validated in tests/dist/).  With batch == 1
/// this reproduces distributed_bidding bit for bit — same winner, same
/// ledger.
[[nodiscard]] BatchDrawResult distributed_bidding_batch(
    const ShardedFitness& shards, std::size_t batch,
    const rng::SeedSequence& seeds);

[[nodiscard]] BatchDrawResult distributed_bidding_batch(
    const ShardedFitness& shards, std::size_t batch, std::uint64_t seed);

/// Counter-based deterministic distributed bidding: the P-INVARIANT replay
/// contract.  The stream-based paths above draw rank r's bids from
/// seeds.child(r), so the same master seed selects different individuals at
/// P = 4 vs P = 8.  Here instead every rank computes the pure-function bids
/// rng::deterministic_bid(seed, draw_id, global index, f) over its own shard
/// (the core::DeterministicDrawKernel ShardedFitness keeps for that shard,
/// filtered exactly like the stream hot path, never re-packed per batch) and
/// the usual argmax-allreduce crowns the winner — so the selected
/// index is a function of (seed, draw_id, fitness) alone: bit-identical to
/// serial core::DeterministicBidder at every rank count and every shard
/// partition, for the SAME communication bill as distributed_bidding
/// (identical collective, identical ledger).  Cost: one Philox4x32-10 block
/// per positive item per draw — ~2.5-4x the filtered xoshiro stream kernel
/// (the `deterministic` column of BENCH_selection.json).
///
/// `draw_id` is the absolute position in the deterministic draw stream —
/// pass t to reproduce exactly what DeterministicBidder(seed) returns for
/// its t-th select() (replay, checkpoint-restart, cross-machine audits).
[[nodiscard]] DrawResult distributed_bidding_deterministic(
    const ShardedFitness& shards, std::uint64_t seed, std::uint64_t draw_id = 0);

/// B batched deterministic draws with draw ids first_draw_id .. +B-1, all
/// riding ONE allreduce_argmax_batch — the same 2B-word, ceil(log2 P)-round
/// exchange as distributed_bidding_batch, hence the identical CommLedger at
/// every (P, B).  indices[t] equals the serial DeterministicBidder winner of
/// draw first_draw_id + t at every rank count and partition.
[[nodiscard]] BatchDrawResult distributed_bidding_deterministic_batch(
    const ShardedFitness& shards, std::size_t batch, std::uint64_t seed,
    std::uint64_t first_draw_id = 0);

/// Draw-id cursor over the deterministic distributed stream, mirroring
/// core::DeterministicBidder's seek/replay contract: select() consumes draw
/// ids sequentially, seek() repositions, and any interleaving of single and
/// batched selects that covers the same draw ids returns the same winners.
/// The cursor holds no RNG state — only (seed, next draw id) — so it can be
/// checkpointed as two integers and resumed on a cluster of any size.
class DeterministicDistributedBidder {
 public:
  constexpr explicit DeterministicDistributedBidder(std::uint64_t seed) noexcept
      : seed_(seed) {}

  [[nodiscard]] constexpr std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] constexpr std::uint64_t next_draw_id() const noexcept {
    return draw_;
  }

  /// Positions the cursor at an absolute draw id (replay support).
  constexpr void seek(std::uint64_t draw_id) noexcept { draw_ = draw_id; }

  /// One draw at the cursor; advances it by 1.
  [[nodiscard]] DrawResult select(const ShardedFitness& shards);

  /// B draws at the cursor through one batched allreduce; advances it by B.
  [[nodiscard]] BatchDrawResult select_batch(const ShardedFitness& shards,
                                             std::size_t batch);

 private:
  std::uint64_t seed_;
  std::uint64_t draw_ = 0;
};

/// Prefix-sum (inverse CDF) roulette over shards: scan + reduce + broadcast
/// + local inverse-CDF + winner publication.  Same selection distribution,
/// strictly larger communication bill — the point of experiment A9.
[[nodiscard]] DrawResult distributed_prefix_sum(const ShardedFitness& shards,
                                                const rng::SeedSequence& seeds);

[[nodiscard]] DrawResult distributed_prefix_sum(const ShardedFitness& shards,
                                                std::uint64_t seed);

/// What prefix_sum_locate resolved: the rank whose CDF interval contains the
/// threshold and the positive-fitness cell its inverse-CDF walk landed on
/// (index is always inside owner's shard — one derivation, no second
/// ownership lookup for the caller to keep consistent).
struct PrefixLocation {
  std::size_t owner = 0;  ///< rank whose [offset, offset + sum) contains t
  std::size_t index = 0;  ///< selected global index, fitness[index] > 0
};

/// The ownership + local inverse-CDF step of distributed_prefix_sum, exposed
/// so its threshold edges are directly testable (the RNG cannot be steered
/// onto them through the public entry points).  `offsets[r]` is the
/// exclusive prefix sum of the shard sums (offsets[0] == 0) and `threshold`
/// is in [0, total).  The owner is the LAST non-empty rank with
/// offset <= threshold — under exact arithmetic the unique rank whose
/// interval [offset, offset + sum) contains the threshold, and under
/// rounding a rule that never gaps or double-claims, including when the
/// threshold lands exactly on a shard boundary or is 0 with leading
/// zero-fitness cells.  The walk inside the owner only ever lands on
/// positive-fitness cells.  Edge cases pinned in tests/dist/.
[[nodiscard]] PrefixLocation prefix_sum_locate(const ShardedFitness& shards,
                                               std::span<const double> offsets,
                                               double threshold);

}  // namespace lrb::dist
