// DrawLog: the crash-safe append-only write-ahead log of a selection
// service — every update, draw batch (with its winners), reshard, and
// snapshot checkpoint, as length-prefixed CRC-framed records.
//
// Frame layout (integers little-endian, see persist/wire.hpp):
//
//   u32  payload length        (bounded by kMaxRecordBytes)
//   u32  CRC32C of the payload
//   u8   record kind           -+
//   ...  kind-specific body     +-- the payload the CRC covers
//
// Writer durability: the file is opened O_APPEND.  append() encodes each
// frame into one reused pending buffer, and the buffered frames reach the
// file in ONE write(2) at the point where FlushPolicy fsyncs — kEveryRecord
// (each record written and durable before append returns), kBatch (every
// `batch_records` appends, amortizing both calls), kNone (at sync() and
// destruction).  Under any policy, pending frames that pass
// kPendingFlushBytes are written early, without an fsync, so memory stays
// bounded however rarely the caller syncs.  A frame is acknowledged only
// by the fsync that covers it: a process killed under kBatch/kNone loses
// its unsynced frames, which WheelJournal::resume() treats like any other
// unsynced tail.  After a failed write or fsync the writer is poisoned —
// every later append()/sync() throws PersistIoError naming the first
// failure — so no frame ever lands behind a torn one.
// bench_json's `persist` section prices the three policies.
//
// Reader crash tolerance — the load-bearing guarantee: a process killed
// mid-write leaves a torn final frame (short header, short payload, or a
// CRC that does not match).  read_draw_log() parses frames strictly in
// order and STOPS at the first invalid one, reporting the valid prefix
// and the torn byte count; recover_truncate() then chops the file back to
// the last valid frame.  No input — truncation at any byte, a flipped bit
// anywhere — can make the reader crash, allocate unboundedly (lengths are
// double-checked against both the cap and the bytes actually present), or
// silently return records past the damage; a CRC-clean frame whose payload
// is semantically malformed throws CorruptLogError.  The corruption-fuzz
// suite (tests/persist/draw_log_fuzz_test.cpp) drives every truncation
// point and bit flip under ASan/UBSan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "persist/io.hpp"

namespace lrb::persist {

/// When the writer calls fsync(2) — and so when its buffered frames reach
/// the file in one write(2).
enum class FlushPolicy : std::uint8_t {
  kEveryRecord,  ///< written and durable before append() returns
  kBatch,        ///< every DrawLogConfig::batch_records appends
  kNone,         ///< never inside append(); sync()/destruction write and
                 ///< fsync
};

struct DrawLogConfig {
  FlushPolicy policy = FlushPolicy::kEveryRecord;
  std::size_t batch_records = 64;
};

/// Hard cap on one record's payload: a bit-flipped length field must never
/// drive allocation (the reader also cross-checks against the bytes left).
inline constexpr std::uint32_t kMaxRecordBytes = 1u << 24;

/// A writer whose pending frames reach this many bytes writes them before
/// its policy's fsync point (without fsyncing), so a caller that never
/// syncs still holds a bounded buffer.
inline constexpr std::size_t kPendingFlushBytes = 64 * 1024;

// --- record types ----------------------------------------------------------
// Kinds are part of the on-disk format: never reuse or renumber.

/// WheelSet point update (core::WheelSet::update arguments).
struct WheelUpdateRecord {
  std::uint64_t wheel = 0;
  std::uint64_t item = 0;
  double value = 0.0;
};

/// One WheelSet draw request and its winners (LOCAL item indices).  The
/// wheel's cursor advanced by winners.size(); replay re-executes the draws
/// and diffs, recovery seeks past them.
struct WheelDrawRecord {
  std::uint64_t wheel = 0;
  std::vector<std::uint64_t> winners;
};

/// ShardedFitness point update.
struct DistUpdateRecord {
  std::uint64_t index = 0;
  double value = 0.0;
};

/// One deterministic distributed batch: draw ids first_draw_id .. +B-1.
struct DistDrawRecord {
  std::uint64_t first_draw_id = 0;
  std::vector<std::uint64_t> winners;
};

/// Elastic repartition onto `new_ranks` uniform blocks.
struct ReshardRecord {
  std::uint64_t new_ranks = 0;
};

/// A snapshot covering every preceding record was durably committed;
/// `sequence` is writer-assigned (e.g. the record count at commit time).
/// Recovery may skip everything before the last checkpoint.
struct CheckpointRecord {
  std::uint64_t sequence = 0;
};

using Record = std::variant<WheelUpdateRecord, WheelDrawRecord,
                            DistUpdateRecord, DistDrawRecord, ReshardRecord,
                            CheckpointRecord>;

/// Appends CRC-framed records to an O_APPEND log file, coalescing them into
/// one write(2) per flush point.
class DrawLogWriter {
 public:
  /// Opens (creating if absent) `path` for appending.
  DrawLogWriter(const std::string& path, DrawLogConfig config = {});

  DrawLogWriter(DrawLogWriter&&) noexcept = default;
  /// Best-effort flushes this writer's leftovers, as the destructor does,
  /// before taking over `other`'s file and pending frames.
  DrawLogWriter& operator=(DrawLogWriter&& other) noexcept;

  /// Destructor best-effort writes and fsyncs kBatch/kNone leftovers; call
  /// sync() for a checked flush.
  ~DrawLogWriter();

  /// Encodes and frames one record into the pending buffer, then (per
  /// policy) writes and fsyncs.  Throws PersistIoError if this or any
  /// earlier write or fsync failed.  Instrumented:
  /// lrb_persist_log_records_total, lrb_persist_log_bytes_total,
  /// lrb_persist_append_ns.
  void append(const Record& record);

  /// Writes every pending frame and fsyncs now, regardless of policy.
  void sync();

  [[nodiscard]] const std::string& path() const noexcept {
    return file_.path();
  }

 private:
  /// One write(2) of every pending frame; poisons the writer on failure.
  void write_pending();
  /// sync() with errors swallowed, skipped when closed, poisoned or synced.
  void sync_best_effort() noexcept;
  [[noreturn]] void throw_poisoned() const;

  File file_;
  DrawLogConfig config_;
  std::vector<std::uint8_t> pending_;  ///< framed records not yet written
  std::size_t unsynced_records_ = 0;   ///< appended since the last fsync
  std::string failure_;  ///< the first failed write/fsync; empty if none
};

/// What reading a (possibly torn) log produced.
struct DrawLogReadResult {
  std::vector<Record> records;     ///< every record of the valid prefix
  std::uint64_t valid_bytes = 0;   ///< length of that prefix on disk
  std::uint64_t total_bytes = 0;   ///< file size as read
  bool torn_tail = false;          ///< bytes past the last valid frame exist

  [[nodiscard]] std::uint64_t dropped_bytes() const noexcept {
    return total_bytes - valid_bytes;
  }
};

/// Reads every valid frame of `path`, stopping cleanly at the first torn or
/// corrupt one (see the header comment for the exact guarantee).  A missing
/// file reads as an empty log — a writer SIGKILLed between snapshot commit
/// and first append leaves exactly that state.  Throws CorruptLogError only
/// for a CRC-clean but semantically malformed payload; PersistIoError for
/// I/O failures other than absence.
[[nodiscard]] DrawLogReadResult read_draw_log(const std::string& path);

/// Decodes one CRC-verified payload (exposed for tests and the replayer).
[[nodiscard]] Record decode_record(std::span<const std::uint8_t> payload);

/// Encodes one record's payload (kind byte + body, unframed).
[[nodiscard]] std::vector<std::uint8_t> encode_record(const Record& record);

/// Truncates `path` to its valid prefix.  Returns the bytes dropped (0 when
/// the log was clean).  Instrumented: lrb_persist_torn_tail_recoveries_total,
/// lrb_persist_dropped_bytes_total.
std::uint64_t recover_truncate(const std::string& path);

}  // namespace lrb::persist
