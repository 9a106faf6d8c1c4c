// Block-sharded fitness vectors: the data layout of distributed selection.
//
// The global fitness vector f_0..f_{n-1} is partitioned into P contiguous
// blocks (sizes differing by at most one, via parallel::partition_range — the
// same deterministic split the shared-memory paths use).  Each rank owns its
// block plus the count of its positive entries, so the questions bidding asks
// are local and O(1):
//
//   * a rank's shard span (for the local bidding sub-race / inverse CDF);
//   * whether the shard has anything to draw (its positive count).
//
// No floating-point sum is kept: bidding needs none, and the prefix-sum
// baseline sums its own shard per draw (shard_sum), so the state is the
// values and the boundaries, whatever order the updates came in.
//
// Each rank also keeps the packed active set of its shard — a
// core::DeterministicDrawKernel — which the deterministic bidding batch reads
// as is, so a batch never re-packs a shard.  A point update overwrites the
// cell, adjusts the owning shard's positive count and patches that rank's
// kernel: O(log k_shard) for a re-weight, plus an O(k_shard) move when the
// entry flips between zero and positive.  That is the distributed echo of the
// paper's core selling point — logarithmic bidding needs no prebuilt global
// structure, so a fitness update touches one rank and nothing else (contrast
// a distributed Fenwick tree or alias table, which must rebuild or ship
// O(log n) updates).
//
// Elasticity: the partition is stored as P+1 shard boundaries, so it can be
// REPLACED mid-stream — reshard(P') repartitions over a different rank count
// (the fault-recovery path: P -> P-1 after a rank failure) and the weighted
// overload supports non-uniform splits for heterogeneous survivors.  Data
// motion is O(moved cells) and ledger-charged; the deterministic selection
// paths are partition-invariant (bids are keyed by GLOBAL index), so winners
// before and after a reshard stitch into one bit-identical draw sequence.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/deterministic.hpp"
#include "dist/topology.hpp"
#include "parallel/partition.hpp"

namespace lrb::persist {
struct ShardedFitnessAccess;  // snapshot serializer (persist/snapshot.cpp)
}

namespace lrb::dist {

/// A fitness vector block-partitioned over the ranks of a Topology.
///
/// Simulation note: one process holds all shards, but every accessor is
/// phrased rank-locally so the selection algorithms in dist/selection.cpp
/// only ever touch data a real rank would own.
class ShardedFitness {
 public:
  /// Copies `fitness` (validated: finite, non-negative, positive total) and
  /// partitions it over `ranks` blocks.  `ranks` may exceed the vector
  /// length; trailing ranks then own empty shards.
  ShardedFitness(std::span<const double> fitness, std::size_t ranks);

  /// Same partitioning, with the collectives of every selection draw routed
  /// through `backend` (dist/backend.hpp) instead of the default simulated
  /// machine.  Under a real backend each process holds the same replicated
  /// vector but computes only the shard of the rank it embodies
  /// (CommBackend::owns_rank); the wire carries only rank-owned
  /// contributions.
  ShardedFitness(std::span<const double> fitness, std::size_t ranks,
                 std::shared_ptr<const CommBackend> backend);

  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] std::size_t ranks() const noexcept { return topology_.ranks(); }
  /// Global vector length n.
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }

  /// The half-open global index range owned by `rank`.
  [[nodiscard]] parallel::Range shard_range(std::size_t rank) const;

  /// The fitness values owned by `rank` (possibly empty).
  [[nodiscard]] std::span<const double> shard(std::size_t rank) const;

  /// Compensated (Kahan) sum of `rank`'s shard, computed from the current
  /// values — O(shard).  Positive iff the shard holds a positive entry; an
  /// all-zero or empty shard sums to exactly +0.0.  Only the prefix-sum
  /// baseline needs it; bidding asks positive_count instead.
  [[nodiscard]] double shard_sum(std::size_t rank) const;

  /// Number of positive entries in `rank`'s shard — O(1), maintained across
  /// updates.  The exact "has something to draw" test.
  [[nodiscard]] std::size_t positive_count(std::size_t rank) const;

  /// The kept deterministic kernel of `rank`'s shard (global indices, current
  /// values), ready to draw whenever positive_count(rank) > 0.  Only ranks
  /// this process embodies have one (CommBackend::owns_rank) — a real-backend
  /// process packs its own shard only, so its cost stays O(n/P); asking for
  /// another rank's kernel throws InvalidArgumentError.
  [[nodiscard]] const core::DeterministicDrawKernel& shard_kernel(
      std::size_t rank) const;

  /// Compensated sum of every shard_sum — O(n).  Bookkeeping convenience for
  /// tests and sanity checks; the selection algorithms recompute the total on
  /// the wire so the ledgers stay honest.
  [[nodiscard]] double total() const noexcept;

  /// The rank owning global index `index`.
  [[nodiscard]] std::size_t owner(std::size_t index) const;

  /// The current value at global index `index`.
  [[nodiscard]] double value(std::size_t index) const;

  /// Point update: sets f_index to `fitness` (finite, non-negative), adjusts
  /// the owning shard's positive count and patches its kept kernel —
  /// O(log k_shard) for a re-weight, plus an O(k_shard) move when the entry
  /// flips between zero and positive; no batch rebuilds anything.  May drive
  /// the global total to zero; the selection entry points then throw
  /// InvalidFitnessError on the next draw, like every serial selector.
  void update(std::size_t index, double fitness);

  /// Elastic repartition onto `new_ranks` uniform blocks (grow or shrink,
  /// including the P'=1 collapse and P' > n with trailing empty shards),
  /// keeping the current backend.  The result is indistinguishable from a
  /// freshly constructed ShardedFitness(values, new_ranks) — same
  /// boundaries, positive counts and kernels — except that no validation
  /// pass runs: resharding is legal mid-update-stream even while the global
  /// total is transiently zero.
  ///
  /// Returns the data-motion bill: O(moved) — `words` counts exactly the
  /// cells whose owning rank changed, `messages` the distinct (old owner ->
  /// new owner) transfers, `critical_path_words` the heaviest single new
  /// rank's inbound volume, `rounds` 1 iff anything moved.  Deterministic
  /// replay (the recovery contract) needs no more: surviving processes
  /// replicate the values, so only ownership — who computes which sub-race —
  /// actually moves.
  CommLedger reshard(std::size_t new_ranks);

  /// Same repartition, rebinding the collectives to `backend` — the
  /// rank-failure path, where the survivors form a new (smaller)
  /// communicator and need a backend bound to it.  Null keeps the default
  /// simulated machine.
  CommLedger reshard(std::size_t new_ranks,
                     std::shared_ptr<const CommBackend> backend);

  /// Non-uniform repartition for heterogeneous survivors: rank r's shard
  /// size is proportional to capacities[r] (finite, >= 0, positive total),
  /// boundaries at floor(n * cum_capacity / total_capacity).  Equal
  /// capacities give a balanced split (sizes differ by at most one), though
  /// not necessarily the same boundaries as reshard(new_ranks) — the floor
  /// rule and partition_range place the remainder cells differently.  Same
  /// bill and same O(moved) contract as reshard(new_ranks).
  CommLedger reshard_weighted(std::span<const double> capacities);

  CommLedger reshard_weighted(std::span<const double> capacities,
                              std::shared_ptr<const CommBackend> backend);

 private:
  // The checkpoint layer (persist/snapshot.cpp) restores the values and
  // boundaries field by field, with its own corruption checks, which needs
  // field-level access and the validation-free default constructor below.
  friend struct lrb::persist::ShardedFitnessAccess;

  /// Restore-only: an empty placeholder the snapshot layer fills field by
  /// field (after verifying the bytes).  Private so the public API never
  /// sees a vector that skipped validation.
  ShardedFitness() : topology_(1) {}

  /// Shared tail of construction and resharding: installs `begins` (size
  /// ranks+1), counts every shard's positive entries from values_, and
  /// builds the kernels.
  void install_partition(std::vector<std::size_t> begins);

  /// Packs the kernel of every rank this process embodies from values_,
  /// begins_ and positive_counts_ (already valid); other ranks get none.
  void build_kernels();

  CommLedger reshard_to(std::vector<std::size_t> new_begins,
                        std::shared_ptr<const CommBackend> backend,
                        bool keep_backend);

  Topology topology_;
  std::vector<double> values_;
  /// Shard boundaries: rank r owns [begins_[r], begins_[r+1]).  Uniform
  /// block partition at construction; replaced wholesale by reshard.
  std::vector<std::size_t> begins_;
  std::vector<std::size_t> positive_counts_;
  /// One slot per rank, engaged only where topology_.backend().owns_rank(r).
  std::vector<std::optional<core::DeterministicDrawKernel>> kernels_;
};

}  // namespace lrb::dist
