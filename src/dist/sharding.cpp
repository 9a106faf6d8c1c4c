#include "dist/sharding.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/math.hpp"
#include "dist/backend.hpp"
#include "obs/obs.hpp"

namespace lrb::dist {

namespace {

/// The uniform block partition as boundary form: begins[r] is where rank r's
/// shard starts, begins[ranks] == n.  Exactly parallel::partition_range's
/// split (first n % ranks shards get the extra element), so constructing
/// from boundaries is bit-compatible with the pre-elastic closed form.
std::vector<std::size_t> uniform_begins(std::size_t n, std::size_t ranks) {
  std::vector<std::size_t> begins(ranks + 1, 0);
  for (std::size_t r = 0; r < ranks; ++r) {
    begins[r + 1] = parallel::partition_range(n, ranks, r).end;
  }
  return begins;
}

/// Capacity-proportional boundaries: rank r's shard ends at
/// floor(n * cum_capacity(0..r) / total_capacity).  Monotone by clamping, so
/// rounding can never produce overlapping or reversed shards; a rank with
/// zero capacity owns an empty shard.
std::vector<std::size_t> weighted_begins(std::size_t n,
                                         std::span<const double> capacities) {
  LRB_REQUIRE(!capacities.empty(), InvalidArgumentError,
              "reshard_weighted: need at least one capacity");
  KahanSum total;
  for (std::size_t r = 0; r < capacities.size(); ++r) {
    const double c = capacities[r];
    LRB_REQUIRE(std::isfinite(c) && c >= 0.0, InvalidArgumentError,
                "reshard_weighted: capacities must be finite and non-negative"
                " (rank " + std::to_string(r) + ")");
    total.add(c);
  }
  LRB_REQUIRE(total.value() > 0.0, InvalidArgumentError,
              "reshard_weighted: capacity total must be positive");
  std::vector<std::size_t> begins(capacities.size() + 1, 0);
  KahanSum cum;
  for (std::size_t r = 0; r + 1 < capacities.size(); ++r) {
    cum.add(capacities[r]);
    const double frac = cum.value() / total.value();
    const auto cut =
        static_cast<std::size_t>(static_cast<double>(n) * frac);
    begins[r + 1] = std::min(std::max(cut, begins[r]), n);
  }
  begins[capacities.size()] = n;
  return begins;
}

}  // namespace

ShardedFitness::ShardedFitness(std::span<const double> fitness,
                               std::size_t ranks)
    : ShardedFitness(fitness, ranks, nullptr) {}

ShardedFitness::ShardedFitness(std::span<const double> fitness,
                               std::size_t ranks,
                               std::shared_ptr<const CommBackend> backend)
    : topology_(ranks, std::move(backend)),
      values_(fitness.begin(), fitness.end()) {
  (void)checked_fitness_total(fitness);
  install_partition(uniform_begins(values_.size(), ranks));
}

void ShardedFitness::install_partition(std::vector<std::size_t> begins) {
  begins_ = std::move(begins);
  const std::size_t p = begins_.size() - 1;
  positive_counts_.resize(p);
  for (std::size_t r = 0; r < p; ++r) {
    positive_counts_[r] = count_nonzero(shard(r));
  }
  build_kernels();
}

void ShardedFitness::build_kernels() {
  const CommBackend& backend = topology_.backend();
  kernels_.assign(ranks(), std::nullopt);
  for (std::size_t r = 0; r < ranks(); ++r) {
    if (!backend.owns_rank(r)) continue;
    kernels_[r].emplace(core::DeterministicDrawKernel::Prevalidated{},
                        shard(r), begins_[r], positive_counts_[r]);
  }
}

parallel::Range ShardedFitness::shard_range(std::size_t rank) const {
  LRB_REQUIRE(rank < ranks(), InvalidArgumentError,
              "shard_range: rank out of range");
  return parallel::Range{begins_[rank], begins_[rank + 1]};
}

std::span<const double> ShardedFitness::shard(std::size_t rank) const {
  const parallel::Range r = shard_range(rank);
  return std::span<const double>(values_).subspan(r.begin, r.size());
}

double ShardedFitness::shard_sum(std::size_t rank) const {
  LRB_REQUIRE(rank < ranks(), InvalidArgumentError,
              "shard_sum: rank out of range");
  return accurate_sum(shard(rank));
}

std::size_t ShardedFitness::positive_count(std::size_t rank) const {
  LRB_REQUIRE(rank < ranks(), InvalidArgumentError,
              "positive_count: rank out of range");
  return positive_counts_[rank];
}

const core::DeterministicDrawKernel& ShardedFitness::shard_kernel(
    std::size_t rank) const {
  LRB_REQUIRE(rank < ranks(), InvalidArgumentError,
              "shard_kernel: rank out of range");
  LRB_REQUIRE(kernels_[rank].has_value(), InvalidArgumentError,
              "shard_kernel: rank " + std::to_string(rank) +
                  " is not embodied by this process");
  return *kernels_[rank];
}

double ShardedFitness::total() const noexcept {
  KahanSum sum;
  for (std::size_t r = 0; r < ranks(); ++r) sum.add(shard_sum(r));
  return sum.value();
}

std::size_t ShardedFitness::owner(std::size_t index) const {
  LRB_REQUIRE(index < values_.size(), InvalidArgumentError,
              "owner: index out of range");
  // Last boundary <= index.  Empty shards share a boundary value with their
  // successor; upper_bound lands past the whole run, so the owner is always
  // the (unique) shard whose half-open range actually contains the index.
  const auto it = std::upper_bound(begins_.begin(), begins_.end(), index);
  return static_cast<std::size_t>(it - begins_.begin()) - 1;
}

double ShardedFitness::value(std::size_t index) const {
  LRB_REQUIRE(index < values_.size(), InvalidArgumentError,
              "value: index out of range");
  return values_[index];
}

void ShardedFitness::update(std::size_t index, double fitness) {
  LRB_REQUIRE(index < values_.size(), InvalidArgumentError,
              "update: index out of range");
  // Same message shape as checked_fitness_total (common/math.hpp): the
  // offending index and value, uniform across every selector's error surface.
  LRB_REQUIRE(std::isfinite(fitness), InvalidFitnessError,
              "update: fitness must be finite (index " + std::to_string(index) +
                  ", value " + detail::fitness_value_str(fitness) + ")");
  LRB_REQUIRE(fitness >= 0.0, InvalidFitnessError,
              "update: fitness must be non-negative (index " +
                  std::to_string(index) + ", value " +
                  detail::fitness_value_str(fitness) + ")");
  const std::size_t rank = owner(index);
  // The kernel first: set() is the only step that can throw (allocation on a
  // flip), and nothing below it can, so a failed update changes nothing.
  if (kernels_[rank]) kernels_[rank]->set(index, fitness);
  positive_counts_[rank] += (fitness > 0.0);
  positive_counts_[rank] -= (values_[index] > 0.0);
  values_[index] = fitness;
}

CommLedger ShardedFitness::reshard(std::size_t new_ranks) {
  LRB_REQUIRE(new_ranks >= 1, InvalidArgumentError,
              "reshard: need at least one rank");
  return reshard_to(uniform_begins(values_.size(), new_ranks), nullptr,
                    /*keep_backend=*/true);
}

CommLedger ShardedFitness::reshard(std::size_t new_ranks,
                                   std::shared_ptr<const CommBackend> backend) {
  LRB_REQUIRE(new_ranks >= 1, InvalidArgumentError,
              "reshard: need at least one rank");
  return reshard_to(uniform_begins(values_.size(), new_ranks),
                    std::move(backend), /*keep_backend=*/false);
}

CommLedger ShardedFitness::reshard_weighted(
    std::span<const double> capacities) {
  return reshard_to(weighted_begins(values_.size(), capacities), nullptr,
                    /*keep_backend=*/true);
}

CommLedger ShardedFitness::reshard_weighted(
    std::span<const double> capacities,
    std::shared_ptr<const CommBackend> backend) {
  return reshard_to(weighted_begins(values_.size(), capacities),
                    std::move(backend), /*keep_backend=*/false);
}

CommLedger ShardedFitness::reshard_to(
    std::vector<std::size_t> new_begins,
    std::shared_ptr<const CommBackend> backend, bool keep_backend) {
  LRB_TRACE_SPAN("reshard");
  LRB_OBS_SCOPED_NS("lrb_fault_reshard_ns");
  const std::size_t n = values_.size();
  const std::size_t new_ranks = new_begins.size() - 1;

  // O(P + P') boundary sweep for the data-motion bill.  Each maximal cell
  // run with a single (old owner, new owner) pair is one point-to-point
  // transfer; runs whose owner did not change move nothing (the O(moved)
  // guarantee — shrinking P by one moves only the cells that change hands,
  // not the whole vector).  All transfers fly concurrently, so the bill is
  // one round and the critical path is the heaviest single new rank's
  // inbound volume (the straggler receiver).
  CommLedger motion;
  std::vector<std::uint64_t> inbound(new_ranks, 0);
  std::size_t old_shard = 0;
  std::size_t new_shard = 0;
  std::size_t pos = 0;
  while (pos < n) {
    while (begins_[old_shard + 1] <= pos) ++old_shard;
    while (new_begins[new_shard + 1] <= pos) ++new_shard;
    const std::size_t seg_end =
        std::min(begins_[old_shard + 1], new_begins[new_shard + 1]);
    if (old_shard != new_shard) {
      motion.messages += 1;
      motion.words += seg_end - pos;
      inbound[new_shard] += seg_end - pos;
    }
    pos = seg_end;
  }
  if (motion.words > 0) {
    motion.rounds = 1;
    motion.critical_path_words =
        *std::max_element(inbound.begin(), inbound.end());
  }

  topology_ = Topology(
      new_ranks, keep_backend ? topology_.backend_handle() : std::move(backend));
  // No checked_fitness_total here, deliberately: resharding must be legal
  // while the global total is transiently zero (recovery can race a zeroing
  // update stream).
  install_partition(std::move(new_begins));

  LRB_OBS_COUNTER_ADD("lrb_fault_reshards_total", 1);
  LRB_OBS_COUNTER_ADD("lrb_fault_moved_words_total", motion.words);
  return motion;
}

}  // namespace lrb::dist
