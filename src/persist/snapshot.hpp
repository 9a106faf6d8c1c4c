// lrb-snap/v1: the versioned binary snapshot format.
//
// Layout (all integers little-endian, doubles as IEEE-754 bit patterns —
// see persist/wire.hpp):
//
//   [0..7]   magic "LRBSNAP1"
//   u32      format version (1)
//   u32      section count
//   per section:
//     u32    section id (SectionId)
//     u64    payload length
//     bytes  payload
//     u32    CRC32C of the payload
//
// One snapshot holds any subset of the sections, so a WheelSet service and
// a distributed selection service share the same container.  Restore is
// BIT-IDENTICAL to the live object at save time: values, per-wheel seeds
// and cursors, and shard boundaries — continuing the draw stream from a
// restored object produces byte-identical winners on every SIMD dispatch
// target (tests/persist/, the CI crash job, and bench_json's
// restore_bit_exact_everywhere invariant all enforce this).
//
// Neither object keeps a floating-point sum or a pending repack, so the
// bytes are a function of that state alone: equal states encode
// identically, whatever their update history.  The layout still has the sum
// words of the builds that kept sums (a Kahan sum and compensation per
// wheel, a sum per shard) and the per-wheel dirty byte of the builds that
// deferred repacks.  The encoder fills the sums from the values
// (compensation 0.0) and writes every dirty byte as 0; the decoder checks
// the sums' sign against the recounted positives and each dirty byte
// against {0, 1}, then drops them, so older snapshots still restore.
//
// Verification before construction: magic, version, per-section CRC, and
// semantic cross-checks (monotone offsets, recounted positives, finite
// non-negative values).  Any failure throws CorruptSnapshotError; restore
// never hands back an object built from unverified bytes.
//
// Durability: write() commits via the atomic-rename idiom (persist/io.hpp),
// so an existing snapshot file is replaced all-or-nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/wheel_set.hpp"
#include "dist/selection.hpp"
#include "dist/sharding.hpp"

namespace lrb::persist {

inline constexpr std::uint32_t kSnapshotVersion = 1;

/// What a section holds.  Ids are part of the on-disk format: never reuse
/// or renumber, only append.
enum class SectionId : std::uint32_t {
  kWheelSet = 1,
  kShardedFitness = 2,
  kDistCursor = 3,
  kJournalHeader = 4,  ///< persist/journal.hpp bookkeeping
};

/// An in-memory snapshot: a set of typed sections that can be encoded to /
/// decoded from the lrb-snap/v1 container.
class Snapshot {
 public:
  Snapshot() = default;

  /// Parses and verifies an encoded snapshot.  Throws CorruptSnapshotError
  /// on any framing defect (bad magic, version, truncation, CRC mismatch,
  /// duplicate section).
  [[nodiscard]] static Snapshot decode(std::span<const std::uint8_t> bytes);

  /// read_file + decode.  Instrumented as one restore-side latency
  /// (lrb_persist_restore_ns covers decode + object reconstruction).
  [[nodiscard]] static Snapshot read(const std::string& path);

  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// encode + atomic_write_file: after return the snapshot is durable under
  /// `path`; a crash mid-write leaves any previous snapshot intact.
  /// Instrumented: lrb_persist_snapshots_total, lrb_persist_snapshot_bytes_total,
  /// lrb_persist_snapshot_ns.
  void write(const std::string& path) const;

  [[nodiscard]] bool has(SectionId id) const noexcept;

  // --- typed sections -----------------------------------------------------

  /// Captures the full WheelSet state: arena values, offsets, per-wheel
  /// seeds / cursors / positive counts, plus each wheel's sum computed from
  /// its values (the v1 sum words) and a 0 in every v1 dirty byte.
  void put_wheel_set(const core::WheelSet& ws);

  /// Reconstructs the WheelSet.  The packed active sets are rebuilt from
  /// the restored values (they are a pure function of them: the live arena
  /// keeps them sorted by local index), so the restored arena draws
  /// bit-identically to the saved one.
  [[nodiscard]] core::WheelSet wheel_set() const;

  /// Captures values, the boundary vector, each shard's sum computed from
  /// its values (the v1 sum words), and positive counts.
  void put_sharded_fitness(const dist::ShardedFitness& shards);

  /// Reconstructs the sharded vector on `backend` (null = the simulated
  /// machine).  The backend handle is runtime wiring, not state, so it is
  /// re-injected at restore — the restored object is bit-identical in every
  /// value the selection paths read.
  [[nodiscard]] dist::ShardedFitness sharded_fitness(
      std::shared_ptr<const dist::CommBackend> backend = nullptr) const;

  /// The two-integer deterministic distributed cursor.
  void put_dist_cursor(const dist::DeterministicDistributedBidder& cursor);
  [[nodiscard]] dist::DeterministicDistributedBidder dist_cursor() const;

  /// Journal bookkeeping (persist/journal.hpp): how many leading draw-log
  /// records this snapshot already reflects — resume applies only the rest.
  void put_journal_header(std::uint64_t applied_records);
  [[nodiscard]] std::uint64_t journal_header() const;

 private:
  struct Section {
    SectionId id;
    std::vector<std::uint8_t> payload;
  };

  void put_section(SectionId id, std::vector<std::uint8_t> payload);
  [[nodiscard]] std::span<const std::uint8_t> section(SectionId id) const;

  std::vector<Section> sections_;
};

}  // namespace lrb::persist
