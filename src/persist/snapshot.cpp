// lrb-snap/v1 container framing plus the per-type (de)serializers.  The
// Access structs at the top are the named friends of WheelSet and
// ShardedFitness: all field-level knowledge lives here, behind the same
// verification the header promises — nothing constructs an object from
// bytes that failed a check.
#include "persist/snapshot.hpp"

#include <cmath>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/math.hpp"
#include "obs/obs.hpp"
#include "persist/crc32c.hpp"
#include "persist/io.hpp"
#include "persist/wire.hpp"

namespace lrb::persist {

namespace {

constexpr char kMagic[8] = {'L', 'R', 'B', 'S', 'N', 'A', 'P', '1'};

/// Shared corruption check for restored fitness values: the live objects
/// only ever hold finite, non-negative values (admission validates), so
/// anything else in a CRC-clean snapshot is an encoder bug or silent
/// corruption — surfaced as CorruptSnapshotError, never rebuilt into an
/// object.
void check_restored_value(const ByteReader& r, double f, std::uint64_t index) {
  if (!(std::isfinite(f) && f >= 0.0)) {
    r.fail("restored fitness must be finite and non-negative (index " +
           std::to_string(index) + ", value " + lrb::detail::fitness_value_str(f) +
           ")");
  }
}

}  // namespace

/// Field-level WheelSet serializer (the friend wheel_set.hpp declares).
struct WheelSetAccess {
  static std::vector<std::uint8_t> encode(const core::WheelSet& ws) {
    ByteWriter w;
    const std::size_t wheels = ws.wheels();
    const std::size_t total = ws.total_items();
    w.u64(ws.set_seed_);
    w.u64(wheels);
    w.u64(total);
    for (std::size_t k = 0; k <= wheels; ++k) w.u64(ws.offsets_[k]);
    for (double f : ws.values_) w.f64(f);
    for (std::uint64_t s : ws.seeds_) w.u64(s);
    for (std::uint64_t c : ws.cursors_) w.u64(c);
    // The v1 layout's per-wheel Kahan (sum, compensation) words, filled from
    // the values so the bytes do not depend on the order of updates.
    for (std::size_t k = 0; k < wheels; ++k) {
      w.f64(accurate_sum(ws.wheel_values(k)));
      w.f64(0.0);
    }
    for (std::size_t p : ws.positive_count_) w.u64(p);
    // The v1 layout's per-wheel dirty bytes: the packs are always current,
    // so there is never a repack pending.
    for (std::size_t k = 0; k < wheels; ++k) w.u8(0);
    w.u64(ws.total_active_);
    return w.take();
  }

  static core::WheelSet decode(ByteReader& r) {
    const std::uint64_t set_seed = r.u64("set_seed");
    const std::uint64_t wheels = r.u64("wheel count");
    const std::uint64_t total = r.u64("total items");
    // The remaining payload is at least 8 bytes per offset alone; a
    // bit-flipped count cannot make us allocate unboundedly past the
    // buffer because every element read below is bounds-checked, but
    // reserve-by-claim would — so sanity-cap the counts against the bytes
    // actually present before sizing any vector.
    if (wheels > r.remaining() / 8 || total > r.remaining() / 8) {
      r.fail("wheel/item counts exceed the snapshot payload");
    }
    core::WheelSet ws(set_seed);
    ws.offsets_.resize(wheels + 1);
    for (std::uint64_t k = 0; k <= wheels; ++k) {
      ws.offsets_[k] = r.u64("offset");
    }
    if (ws.offsets_[0] != 0 || ws.offsets_[wheels] != total) {
      r.fail("offsets must start at 0 and end at the total item count");
    }
    for (std::uint64_t k = 0; k < wheels; ++k) {
      if (ws.offsets_[k] > ws.offsets_[k + 1]) {
        r.fail("offsets must be non-decreasing (wheel " + std::to_string(k) +
               ")");
      }
    }
    ws.values_.resize(total);
    for (std::uint64_t i = 0; i < total; ++i) {
      ws.values_[i] = r.f64("value");
      check_restored_value(r, ws.values_[i], i);
    }
    ws.seeds_.resize(wheels);
    for (std::uint64_t k = 0; k < wheels; ++k) ws.seeds_[k] = r.u64("seed");
    ws.cursors_.resize(wheels);
    for (std::uint64_t k = 0; k < wheels; ++k) {
      ws.cursors_[k] = r.u64("cursor");
    }
    // Read only for the sign check below, then dropped.  A snapshot may
    // carry a live accumulator here (non-zero compensation included) or
    // (sum, 0.0); both collapse to sum + compensation.
    std::vector<double> sums(wheels);
    for (std::uint64_t k = 0; k < wheels; ++k) {
      const double sum = r.f64("kahan sum");
      const double comp = r.f64("kahan compensation");
      sums[k] = sum + comp;
    }
    ws.positive_count_.resize(wheels);
    std::size_t total_active = 0;
    for (std::uint64_t k = 0; k < wheels; ++k) {
      ws.positive_count_[k] = r.u64("positive count");
      total_active += ws.positive_count_[k];
    }
    // Builds with a deferred repack stored a pending flag here; the packs
    // are rebuilt from the values below either way, so it is checked and
    // dropped.
    for (std::uint64_t k = 0; k < wheels; ++k) {
      if (r.u8("dirty flag") > 1) r.fail("dirty flag must be 0 or 1");
    }
    if (r.u64("total active") != total_active) {
      r.fail("total active count does not match the per-wheel counts");
    }

    // Cross-checks before touching rebuild_active (whose internal
    // assertion would abort, not throw, on a bad count): the positive
    // counts and sum invariants must match what the values imply.
    for (std::uint64_t k = 0; k < wheels; ++k) {
      const std::size_t recount = count_nonzero(ws.wheel_values(k));
      if (recount != ws.positive_count_[k]) {
        r.fail("positive count does not match the values (wheel " +
               std::to_string(k) + ")");
      }
      if ((sums[k] > 0.0) != (recount > 0)) {
        r.fail("stored sum sign does not match the positive count (wheel " +
               std::to_string(k) + ")");
      }
    }

    // The packed active sets are a pure function of values_: the live
    // arena keeps them sorted by local index, which is what a fresh pack
    // produces.
    ws.active_streams_.resize(total);
    ws.active_f_.resize(total);
    ws.active_inv_f_.resize(total);
    for (std::uint64_t k = 0; k < wheels; ++k) ws.rebuild_active(k);
    ws.total_active_ = total_active;
    LRB_OBS_GAUGE_ADD("lrb_wheelset_wheels", wheels);
    LRB_OBS_GAUGE_ADD("lrb_wheelset_items", total);
    LRB_OBS_GAUGE_ADD("lrb_wheelset_active_items", total_active);
    return ws;
  }
};

/// Field-level ShardedFitness serializer (the friend sharding.hpp declares).
struct ShardedFitnessAccess {
  static std::vector<std::uint8_t> encode(const dist::ShardedFitness& sf) {
    ByteWriter w;
    const std::size_t ranks = sf.ranks();
    w.u64(ranks);
    w.u64(sf.values_.size());
    for (double f : sf.values_) w.f64(f);
    for (std::size_t b : sf.begins_) w.u64(b);
    // The v1 layout's shard-sum words, recomputed from the values.
    for (std::size_t b = 0; b < ranks; ++b) w.f64(sf.shard_sum(b));
    for (std::size_t p : sf.positive_counts_) w.u64(p);
    return w.take();
  }

  static dist::ShardedFitness decode(
      ByteReader& r, std::shared_ptr<const dist::CommBackend> backend) {
    const std::uint64_t ranks = r.u64("rank count");
    const std::uint64_t n = r.u64("vector length");
    if (ranks == 0) r.fail("rank count must be at least 1");
    if (ranks > r.remaining() / 8 || n > r.remaining() / 8) {
      r.fail("rank/vector counts exceed the snapshot payload");
    }
    dist::ShardedFitness sf;
    sf.topology_ = dist::Topology(ranks, std::move(backend));
    sf.values_.resize(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      sf.values_[i] = r.f64("value");
      check_restored_value(r, sf.values_[i], i);
    }
    sf.begins_.resize(ranks + 1);
    for (std::uint64_t b = 0; b <= ranks; ++b) {
      sf.begins_[b] = r.u64("shard boundary");
    }
    if (sf.begins_[0] != 0 || sf.begins_[ranks] != n) {
      r.fail("shard boundaries must start at 0 and end at the vector length");
    }
    for (std::uint64_t b = 0; b < ranks; ++b) {
      if (sf.begins_[b] > sf.begins_[b + 1]) {
        r.fail("shard boundaries must be non-decreasing (rank " +
               std::to_string(b) + ")");
      }
    }
    // Read only for the sign check below, then dropped.
    std::vector<double> sums(ranks);
    for (std::uint64_t b = 0; b < ranks; ++b) sums[b] = r.f64("shard sum");
    sf.positive_counts_.resize(ranks);
    for (std::uint64_t b = 0; b < ranks; ++b) {
      sf.positive_counts_[b] = r.u64("positive count");
      const std::size_t recount = count_nonzero(sf.shard(b));
      if (recount != sf.positive_counts_[b]) {
        r.fail("positive count does not match the values (rank " +
               std::to_string(b) + ")");
      }
      // The sum word's invariant: > 0 iff a positive entry exists, and
      // exactly 0.0 for an emptied shard (no residue).
      const double s = sums[b];
      if (!std::isfinite(s) || (recount == 0 ? s != 0.0 : !(s > 0.0))) {
        r.fail("stored shard sum violates the sign invariant (rank " +
               std::to_string(b) + ", value " + lrb::detail::fitness_value_str(s) +
               ")");
      }
    }
    // The kept kernels are derived state, not snapshot bytes: packed from
    // the verified values, exactly as construction packs them.
    sf.build_kernels();
    return sf;
  }
};

void Snapshot::put_section(SectionId id, std::vector<std::uint8_t> payload) {
  for (Section& s : sections_) {
    if (s.id == id) {
      s.payload = std::move(payload);
      return;
    }
  }
  sections_.push_back(Section{id, std::move(payload)});
}

std::span<const std::uint8_t> Snapshot::section(SectionId id) const {
  for (const Section& s : sections_) {
    if (s.id == id) return s.payload;
  }
  throw CorruptSnapshotError(
      "lrb-snap/v1 snapshot: required section " +
      std::to_string(static_cast<std::uint32_t>(id)) + " is absent");
}

bool Snapshot::has(SectionId id) const noexcept {
  for (const Section& s : sections_) {
    if (s.id == id) return true;
  }
  return false;
}

std::vector<std::uint8_t> Snapshot::encode() const {
  ByteWriter w;
  w.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic), sizeof kMagic));
  w.u32(kSnapshotVersion);
  w.u32(static_cast<std::uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    w.u32(static_cast<std::uint32_t>(s.id));
    w.u64(s.payload.size());
    w.bytes(s.payload);
    w.u32(crc32c(s.payload.data(), s.payload.size()));
  }
  return w.take();
}

Snapshot Snapshot::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes, WireDomain::kSnapshot, "lrb-snap/v1 snapshot");
  const auto magic = r.bytes(sizeof kMagic, "magic");
  if (std::memcmp(magic.data(), kMagic, sizeof kMagic) != 0) {
    r.fail("bad magic (not an lrb-snap file)");
  }
  const std::uint32_t version = r.u32("format version");
  if (version != kSnapshotVersion) {
    r.fail("unsupported format version " + std::to_string(version) +
           " (this build reads version " + std::to_string(kSnapshotVersion) +
           ")");
  }
  const std::uint32_t count = r.u32("section count");
  Snapshot snap;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t id = r.u32("section id");
    const std::uint64_t len = r.u64("section length");
    if (len > r.remaining()) {
      r.fail("section length " + std::to_string(len) +
             " exceeds the remaining bytes");
    }
    const auto payload = r.bytes(static_cast<std::size_t>(len), "section payload");
    const std::uint32_t want = r.u32("section CRC");
    const std::uint32_t got = crc32c(payload.data(), payload.size());
    if (want != got) {
      r.fail("section " + std::to_string(id) + " CRC mismatch");
    }
    const auto sid = static_cast<SectionId>(id);
    if (snap.has(sid)) {
      r.fail("duplicate section id " + std::to_string(id));
    }
    snap.sections_.push_back(
        Section{sid, std::vector<std::uint8_t>(payload.begin(), payload.end())});
  }
  if (!r.exhausted()) r.fail("trailing bytes after the last section");
  return snap;
}

Snapshot Snapshot::read(const std::string& path) {
  LRB_OBS_SCOPED_NS("lrb_persist_restore_ns");
  Snapshot snap = decode(read_file(path));
  LRB_OBS_COUNTER_ADD("lrb_persist_restores_total", 1);
  return snap;
}

void Snapshot::write(const std::string& path) const {
  LRB_TRACE_SPAN("persist_snapshot");
  LRB_OBS_SCOPED_NS("lrb_persist_snapshot_ns");
  const std::vector<std::uint8_t> bytes = encode();
  atomic_write_file(path, bytes);
  LRB_OBS_COUNTER_ADD("lrb_persist_snapshots_total", 1);
  LRB_OBS_COUNTER_ADD("lrb_persist_snapshot_bytes_total", bytes.size());
}

void Snapshot::put_wheel_set(const core::WheelSet& ws) {
  put_section(SectionId::kWheelSet, WheelSetAccess::encode(ws));
}

core::WheelSet Snapshot::wheel_set() const {
  LRB_OBS_SCOPED_NS("lrb_persist_restore_ns");
  ByteReader r(section(SectionId::kWheelSet), WireDomain::kSnapshot,
               "lrb-snap/v1 WheelSet section");
  core::WheelSet ws = WheelSetAccess::decode(r);
  if (!r.exhausted()) r.fail("trailing bytes after the WheelSet state");
  return ws;
}

void Snapshot::put_sharded_fitness(const dist::ShardedFitness& shards) {
  put_section(SectionId::kShardedFitness, ShardedFitnessAccess::encode(shards));
}

dist::ShardedFitness Snapshot::sharded_fitness(
    std::shared_ptr<const dist::CommBackend> backend) const {
  LRB_OBS_SCOPED_NS("lrb_persist_restore_ns");
  ByteReader r(section(SectionId::kShardedFitness), WireDomain::kSnapshot,
               "lrb-snap/v1 ShardedFitness section");
  dist::ShardedFitness sf = ShardedFitnessAccess::decode(r, std::move(backend));
  if (!r.exhausted()) r.fail("trailing bytes after the ShardedFitness state");
  return sf;
}

void Snapshot::put_dist_cursor(
    const dist::DeterministicDistributedBidder& cursor) {
  ByteWriter w;
  w.u64(cursor.seed());
  w.u64(cursor.next_draw_id());
  put_section(SectionId::kDistCursor, w.take());
}

void Snapshot::put_journal_header(std::uint64_t applied_records) {
  ByteWriter w;
  w.u64(applied_records);
  put_section(SectionId::kJournalHeader, w.take());
}

std::uint64_t Snapshot::journal_header() const {
  ByteReader r(section(SectionId::kJournalHeader), WireDomain::kSnapshot,
               "lrb-snap/v1 journal header");
  const std::uint64_t applied = r.u64("applied record count");
  if (!r.exhausted()) r.fail("trailing bytes after the journal header");
  return applied;
}

dist::DeterministicDistributedBidder Snapshot::dist_cursor() const {
  ByteReader r(section(SectionId::kDistCursor), WireDomain::kSnapshot,
               "lrb-snap/v1 cursor section");
  const std::uint64_t seed = r.u64("cursor seed");
  const std::uint64_t draw = r.u64("cursor draw id");
  if (!r.exhausted()) r.fail("trailing bytes after the cursor state");
  dist::DeterministicDistributedBidder cursor(seed);
  cursor.seek(draw);
  return cursor;
}

}  // namespace lrb::persist
