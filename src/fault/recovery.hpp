// The recovery driver: deterministic draws that survive rank failures.
//
// This is where the determinism contract becomes an operational feature.
// PR 3's deterministic distributed selection keys every bid by (seed,
// draw id, GLOBAL index), so winners are invariant under the rank count and
// the shard partition — and DeterministicDistributedBidder's whole state is
// two integers.  A rank failure therefore costs nothing but the failed
// collective itself: reshard the fitness onto the P-1 survivors (O(moved)
// cells, ledger-charged), keep the cursor exactly where it was — the failed
// batch never advanced it — and draw again.  The continued sequence is
// bit-identical to a run that never saw the fault, which
// tools/mpi_parity's rank-failure drill and the chaos CI job both enforce.
//
// Fault taxonomy at this layer:
//   * CommTimeoutError — never reaches the driver: the collective layer
//     (dist/collectives.cpp) retries transient faults under the backend's
//     RetryPolicy.  An exhausted retry budget escalates out of the driver
//     unchanged — by then the fault is indistinguishable from a partition.
//   * RankFailedError — caught here; reshard to P-1 and resume.  With P=1
//     there is no survivor to reshard onto, so it propagates.
//   * PROCESS death (SIGKILL, OOM, power) — survived via lrb::persist: the
//     checkpoint functions below capture the whole selection state (shards
//     + two-integer cursor) in one crash-safe lrb-snap/v1 file, and a
//     restarted process resumes the stream bit-identically — the same
//     contract, extended past the life of the process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/selection.hpp"
#include "dist/sharding.hpp"
#include "dist/topology.hpp"

namespace lrb::fault {

/// One survived rank failure.
struct RecoveryEvent {
  std::uint64_t draw_id = 0;       ///< the draw the failure interrupted
  std::size_t failed_rank = 0;     ///< who died (topology numbering at failure)
  std::size_t ranks_before = 0;
  std::size_t ranks_after = 0;
  dist::CommLedger reshard_comm;   ///< data-motion bill of the reshard
  /// Wall time from catching the failure to publishing the first
  /// post-recovery winner (also recorded in the lrb_fault_recovery_ns
  /// histogram) — the "recovery-to-first-draw" latency bench_json tracks.
  std::uint64_t recovery_to_first_draw_ns = 0;
};

/// What a recovering draw stream produced.
struct RecoveryRun {
  std::vector<std::size_t> indices;  ///< all `draws` winners, in draw order
  /// Selection traffic (including retried axes) plus every reshard's data
  /// motion.
  dist::CommLedger comm;
  std::vector<RecoveryEvent> recoveries;  ///< empty on a clean run
};

/// Runs `draws` deterministic draws from `cursor` over `shards`, in batches
/// of `batch`, surviving any number of rank failures down to one rank.  On
/// RankFailedError: reshards `shards` onto ranks-1 uniform blocks (keeping
/// its backend), acknowledges the recovery if that backend is a
/// FaultInjectingBackend, and resumes from the cursor — which the failed
/// batch never advanced, so no draw is skipped or repeated.  The returned
/// winner sequence is bit-identical to an unfaulted run at any rank count.
///
/// Instrumented: lrb_fault_recoveries_total, lrb_fault_recovery_ns and a
/// "fault_recovery" trace span per event, on top of the reshard's own
/// lrb_fault_reshard_* metrics.
[[nodiscard]] RecoveryRun select_with_recovery(
    dist::ShardedFitness& shards, dist::DeterministicDistributedBidder& cursor,
    std::size_t draws, std::size_t batch = 1);

/// Durably checkpoints a distributed selection stream: `shards` (values,
/// boundaries) and `cursor` (two integers) into one
/// lrb-snap/v1 file at `path`, committed atomically — a crash mid-write
/// leaves any previous checkpoint intact (persist/io.hpp).
void save_selection_checkpoint(const std::string& path,
                               const dist::ShardedFitness& shards,
                               const dist::DeterministicDistributedBidder& cursor);

/// A restored selection stream: continuing select()/select_batch() from
/// here is bit-identical to the stream the checkpoint interrupted, at any
/// rank count (bids are keyed by GLOBAL index).
struct RestoredSelection {
  dist::ShardedFitness shards;
  dist::DeterministicDistributedBidder cursor;
};

/// Restores a checkpoint written by save_selection_checkpoint.  `backend`
/// rebinds the collectives (null = the simulated machine): backends are
/// process wiring, not state, so the restarted process injects its own.
/// Throws CorruptSnapshotError if the file fails verification.
[[nodiscard]] RestoredSelection restore_selection_checkpoint(
    const std::string& path,
    std::shared_ptr<const dist::CommBackend> backend = nullptr);

}  // namespace lrb::fault
