#include "persist/draw_log.hpp"

#include <cerrno>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "persist/crc32c.hpp"
#include "persist/wire.hpp"

namespace lrb::persist {

namespace {

// On-disk record kind bytes (never renumber).
enum : std::uint8_t {
  kKindWheelUpdate = 1,
  kKindWheelDraw = 2,
  kKindDistUpdate = 3,
  kKindDistDraw = 4,
  kKindReshard = 5,
  kKindCheckpoint = 6,
};

void encode_winners(ByteWriter& w, const std::vector<std::uint64_t>& winners) {
  w.u64(winners.size());
  for (std::uint64_t x : winners) w.u64(x);
}

std::vector<std::uint64_t> decode_winners(ByteReader& r) {
  const std::uint64_t count = r.u64("winner count");
  // Cap-by-evidence: each winner is 8 bytes, so a count beyond the bytes
  // present is corrupt no matter what it claims — reject before sizing.
  if (count > r.remaining() / 8) r.fail("winner count exceeds the payload");
  std::vector<std::uint64_t> winners(count);
  for (std::uint64_t i = 0; i < count; ++i) winners[i] = r.u64("winner");
  return winners;
}

/// Appends one record's payload (kind byte + body) to `w`.
void encode_into(ByteWriter& w, const Record& record) {
  std::visit(
      [&w](const auto& rec) {
        using T = std::decay_t<decltype(rec)>;
        if constexpr (std::is_same_v<T, WheelUpdateRecord>) {
          w.u8(kKindWheelUpdate);
          w.u64(rec.wheel);
          w.u64(rec.item);
          w.f64(rec.value);
        } else if constexpr (std::is_same_v<T, WheelDrawRecord>) {
          w.u8(kKindWheelDraw);
          w.u64(rec.wheel);
          encode_winners(w, rec.winners);
        } else if constexpr (std::is_same_v<T, DistUpdateRecord>) {
          w.u8(kKindDistUpdate);
          w.u64(rec.index);
          w.f64(rec.value);
        } else if constexpr (std::is_same_v<T, DistDrawRecord>) {
          w.u8(kKindDistDraw);
          w.u64(rec.first_draw_id);
          encode_winners(w, rec.winners);
        } else if constexpr (std::is_same_v<T, ReshardRecord>) {
          w.u8(kKindReshard);
          w.u64(rec.new_ranks);
        } else {
          static_assert(std::is_same_v<T, CheckpointRecord>);
          w.u8(kKindCheckpoint);
          w.u64(rec.sequence);
        }
      },
      record);
}

/// Overwrites the 4 bytes at `p` with `v`, little-endian.
void store_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

}  // namespace

std::vector<std::uint8_t> encode_record(const Record& record) {
  ByteWriter w;
  encode_into(w, record);
  return w.take();
}

Record decode_record(std::span<const std::uint8_t> payload) {
  ByteReader r(payload, WireDomain::kLog, "draw-log record");
  const std::uint8_t kind = r.u8("record kind");
  Record out;
  switch (kind) {
    case kKindWheelUpdate: {
      WheelUpdateRecord rec;
      rec.wheel = r.u64("wheel");
      rec.item = r.u64("item");
      rec.value = r.f64("value");
      out = rec;
      break;
    }
    case kKindWheelDraw: {
      WheelDrawRecord rec;
      rec.wheel = r.u64("wheel");
      rec.winners = decode_winners(r);
      out = std::move(rec);
      break;
    }
    case kKindDistUpdate: {
      DistUpdateRecord rec;
      rec.index = r.u64("index");
      rec.value = r.f64("value");
      out = rec;
      break;
    }
    case kKindDistDraw: {
      DistDrawRecord rec;
      rec.first_draw_id = r.u64("first draw id");
      rec.winners = decode_winners(r);
      out = std::move(rec);
      break;
    }
    case kKindReshard: {
      ReshardRecord rec;
      rec.new_ranks = r.u64("new rank count");
      out = rec;
      break;
    }
    case kKindCheckpoint: {
      CheckpointRecord rec;
      rec.sequence = r.u64("checkpoint sequence");
      out = rec;
      break;
    }
    default:
      r.fail("unknown record kind " + std::to_string(kind));
  }
  if (!r.exhausted()) r.fail("trailing bytes after the record body");
  return out;
}

DrawLogWriter::DrawLogWriter(const std::string& path, DrawLogConfig config)
    : file_(File::open_append(path)), config_(config) {}

DrawLogWriter& DrawLogWriter::operator=(DrawLogWriter&& other) noexcept {
  if (this != &other) {
    sync_best_effort();
    file_ = std::move(other.file_);
    config_ = other.config_;
    pending_ = std::move(other.pending_);
    unsynced_records_ = std::exchange(other.unsynced_records_, 0);
    failure_ = std::move(other.failure_);
  }
  return *this;
}

DrawLogWriter::~DrawLogWriter() { sync_best_effort(); }

void DrawLogWriter::sync_best_effort() noexcept {
  // Errors are unreportable here, and callers needing the durability
  // receipt call sync() instead.  A poisoned writer writes nothing more.
  if (file_.is_open() && failure_.empty() && unsynced_records_ > 0) {
    try {
      sync();
    } catch (const PersistError&) {  // NOLINT(bugprone-empty-catch)
    }
  }
}

void DrawLogWriter::append(const Record& record) {
  LRB_OBS_SCOPED_NS("lrb_persist_append_ns");
  if (!failure_.empty()) throw_poisoned();
  // Encode the frame in place at the end of the pending buffer: a
  // placeholder header, the payload straight after it, then the header
  // patched.  A warm buffer makes no allocation.
  const std::size_t start = pending_.size();
  ByteWriter w(std::move(pending_));
  try {
    w.u32(0);  // payload length and CRC32C, patched below
    w.u32(0);
    encode_into(w, record);
  } catch (...) {
    // Only growing the buffer can throw: hand the earlier frames back whole.
    pending_ = w.take();
    pending_.resize(start);
    throw;
  }
  pending_ = w.take();
  const std::size_t len = pending_.size() - start - 8;
  LRB_ASSERT(len <= kMaxRecordBytes,
             "draw-log record exceeds kMaxRecordBytes");
  std::uint8_t* frame = pending_.data() + start;
  store_u32(frame, static_cast<std::uint32_t>(len));
  store_u32(frame + 4, crc32c(frame + 8, len));
  LRB_OBS_COUNTER_ADD("lrb_persist_log_records_total", 1);
  LRB_OBS_COUNTER_ADD("lrb_persist_log_bytes_total", len + 8);
  ++unsynced_records_;
  const bool sync_due =
      config_.policy == FlushPolicy::kEveryRecord ||
      (config_.policy == FlushPolicy::kBatch &&
       unsynced_records_ >= config_.batch_records);
  if (sync_due) {
    sync();
  } else if (pending_.size() >= kPendingFlushBytes) {
    write_pending();
  }
}

void DrawLogWriter::sync() {
  if (!failure_.empty()) throw_poisoned();
  write_pending();
  try {
    file_.sync();
  } catch (const PersistIoError& e) {
    failure_ = e.what();
    throw;
  }
  unsynced_records_ = 0;
}

void DrawLogWriter::write_pending() {
  if (pending_.empty()) return;
  // ONE write(2) for every pending frame: O_APPEND lands them contiguously
  // at the end of file, so a crash can tear at most the last frame it
  // reaches, and the reader keeps every whole frame before it.
  try {
    file_.write_all(pending_);
  } catch (const PersistIoError& e) {
    // A failed write may have landed a partial frame; any later frame
    // would sit behind it, where the reader never looks.
    failure_ = e.what();
    throw;
  }
  pending_.clear();
}

void DrawLogWriter::throw_poisoned() const {
  throw PersistIoError("draw log \"" + path() +
                       "\" takes no more records after an earlier failure: " +
                       failure_);
}

DrawLogReadResult read_draw_log(const std::string& path) {
  DrawLogReadResult result;
  if (!file_exists(path)) return result;  // pre-first-append crash state
  const std::vector<std::uint8_t> bytes = read_file(path);
  result.total_bytes = bytes.size();
  std::size_t pos = 0;
  while (true) {
    const std::size_t left = bytes.size() - pos;
    if (left < 8) break;  // torn or absent header
    const std::span<const std::uint8_t> head(bytes.data() + pos, 8);
    const std::uint32_t len = std::uint32_t{head[0]} |
                              std::uint32_t{head[1]} << 8 |
                              std::uint32_t{head[2]} << 16 |
                              std::uint32_t{head[3]} << 24;
    const std::uint32_t want_crc = std::uint32_t{head[4]} |
                                   std::uint32_t{head[5]} << 8 |
                                   std::uint32_t{head[6]} << 16 |
                                   std::uint32_t{head[7]} << 24;
    // Both bounds matter: the cap defuses a bit-flipped length field (no
    // giant allocation), the bytes-left check classifies a short payload
    // as a torn tail rather than reading past the buffer.
    if (len > kMaxRecordBytes || len > left - 8) break;
    const std::span<const std::uint8_t> payload(bytes.data() + pos + 8, len);
    if (crc32c(payload.data(), payload.size()) != want_crc) break;
    // CRC-clean payloads that fail semantic decoding throw CorruptLogError
    // out of here — that is damage framing cannot explain (or a version
    // skew), not a torn tail, and truncating it away would silently drop
    // acknowledged records.
    result.records.push_back(decode_record(payload));
    pos += 8 + len;
    result.valid_bytes = pos;
  }
  result.torn_tail = result.valid_bytes < result.total_bytes;
  return result;
}

std::uint64_t recover_truncate(const std::string& path) {
  const DrawLogReadResult r = read_draw_log(path);
  if (!r.torn_tail) return 0;
  File f = File::open_append(path);
  f.truncate(r.valid_bytes);
  f.sync();
  LRB_OBS_COUNTER_ADD("lrb_persist_torn_tail_recoveries_total", 1);
  LRB_OBS_COUNTER_ADD("lrb_persist_dropped_bytes_total", r.dropped_bytes());
  return r.dropped_bytes();
}

}  // namespace lrb::persist
