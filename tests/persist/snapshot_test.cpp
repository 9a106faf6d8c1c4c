// lrb-snap/v1 round trips: a restored object is bit-identical to the live
// one — proven the only way that matters, by continuing the draw stream on
// every SIMD dispatch target — and no framing defect decodes.
#include "persist/snapshot.hpp"

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dist/selection.hpp"
#include "persist/io.hpp"
#include "persist_testing.hpp"
#include "simd/simd_testing.hpp"

namespace lrb::persist {
namespace {

using lrb::persist::testing::draw_all;
using lrb::persist::testing::scratch_dir;
using lrb::persist::testing::seasoned_shards;
using lrb::persist::testing::seasoned_wheel_set;
using lrb::simd::testing::available_targets;
using lrb::simd::testing::ScopedTarget;

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

Snapshot reencode(const Snapshot& snap) {
  return Snapshot::decode(snap.encode());
}

TEST(SnapshotWheelSet, RestoredObservablesMatch) {
  const core::WheelSet ws = seasoned_wheel_set();
  Snapshot snap;
  snap.put_wheel_set(ws);
  const core::WheelSet restored = reencode(snap).wheel_set();

  ASSERT_EQ(restored.wheels(), ws.wheels());
  ASSERT_EQ(restored.total_items(), ws.total_items());
  EXPECT_EQ(restored.total_active(), ws.total_active());
  for (std::size_t w = 0; w < ws.wheels(); ++w) {
    EXPECT_EQ(restored.seed(w), ws.seed(w)) << "wheel " << w;
    EXPECT_EQ(restored.cursor(w), ws.cursor(w)) << "wheel " << w;
    EXPECT_EQ(restored.active_count(w), ws.active_count(w)) << "wheel " << w;
    for (std::size_t i = 0; i < ws.size(w); ++i) {
      EXPECT_EQ(bits(restored.value(w, i)), bits(ws.value(w, i)))
          << "wheel " << w << " item " << i;
    }
  }
}

TEST(SnapshotWheelSet, ContinuedStreamIsBitExactOnEveryTarget) {
  core::WheelSet live = seasoned_wheel_set();
  Snapshot snap;
  snap.put_wheel_set(live);
  core::WheelSet restored = reencode(snap).wheel_set();

  // Continue BOTH streams under each target in turn (the cursors advance
  // in lockstep, so every leg extends the same draw sequence).
  for (const auto target : available_targets()) {
    ScopedTarget scope(target);
    ASSERT_TRUE(scope.forced());
    for (int round = 0; round < 3; ++round) {
      const auto from_live = draw_all(live, 17);
      const auto from_restored = draw_all(restored, 17);
      EXPECT_EQ(from_live, from_restored)
          << "target " << static_cast<int>(target) << " round " << round;
      // Interleave updates so later rounds exercise post-restore repacks.
      live.update(1, 2, 0.75 + round);
      restored.update(1, 2, 0.75 + round);
    }
  }
}

TEST(SnapshotWheelSet, EncodeIsDeterministic) {
  Snapshot a;
  a.put_wheel_set(seasoned_wheel_set());
  Snapshot b;
  b.put_wheel_set(seasoned_wheel_set());
  EXPECT_EQ(a.encode(), b.encode());
  // decode(encode()) round-trips to identical bytes.
  EXPECT_EQ(reencode(a).encode(), a.encode());
}

TEST(SnapshotWheelSet, EncodingIsHistoryIndependent) {
  // Equal values, seeds and cursors reached by different update orders
  // serialise to the same bytes: no snapshot word depends on the history.
  core::WheelSet direct(5);
  (void)direct.add_wheel(std::vector<double>{0.1, 0.2, 0.3});
  core::WheelSet reweighted(5);
  (void)reweighted.add_wheel(std::vector<double>{0.3, 0.1, 0.2});
  reweighted.update(0, 0, 0.1);
  reweighted.update(0, 1, 0.2);
  reweighted.update(0, 2, 0.3);
  // One draw each: no repack pending, cursors equal.
  EXPECT_EQ(direct.draw_one(0), reweighted.draw_one(0));
  Snapshot a;
  a.put_wheel_set(direct);
  Snapshot b;
  b.put_wheel_set(reweighted);
  EXPECT_EQ(a.encode(), b.encode());
}

TEST(SnapshotShardedFitness, EncodingIsHistoryIndependent) {
  const dist::ShardedFitness direct(std::vector<double>{0.1, 0.2, 0.3, 1.0},
                                    2);
  dist::ShardedFitness updated(std::vector<double>{0.7, 0.2, 0.0, 1.0}, 2);
  updated.update(0, 0.1);
  updated.update(2, 0.3);
  Snapshot a;
  a.put_sharded_fitness(direct);
  Snapshot b;
  b.put_sharded_fitness(updated);
  EXPECT_EQ(a.encode(), b.encode());
}

TEST(SnapshotShardedFitness, RestoredStateIsVerbatim) {
  const dist::ShardedFitness shards = seasoned_shards();
  Snapshot snap;
  snap.put_sharded_fitness(shards);
  const dist::ShardedFitness restored = reencode(snap).sharded_fitness();

  ASSERT_EQ(restored.ranks(), shards.ranks());
  ASSERT_EQ(restored.size(), shards.size());
  for (std::size_t r = 0; r < shards.ranks(); ++r) {
    // shard_sum is computed from the values, so equal values give the same
    // double, bit for bit.
    EXPECT_EQ(bits(restored.shard_sum(r)), bits(shards.shard_sum(r)))
        << "rank " << r;
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(bits(restored.value(i)), bits(shards.value(i))) << "index " << i;
  }
}

TEST(SnapshotShardedFitness, ContinuedDistributedStreamMatches) {
  dist::ShardedFitness live = seasoned_shards();
  dist::DeterministicDistributedBidder live_cursor(99);
  (void)live_cursor.select_batch(live, 5);  // advance past a batch

  Snapshot snap;
  snap.put_sharded_fitness(live);
  snap.put_dist_cursor(live_cursor);
  const Snapshot decoded = reencode(snap);
  dist::ShardedFitness restored = decoded.sharded_fitness();
  dist::DeterministicDistributedBidder restored_cursor = decoded.dist_cursor();

  EXPECT_EQ(restored_cursor.seed(), live_cursor.seed());
  EXPECT_EQ(restored_cursor.next_draw_id(), live_cursor.next_draw_id());
  for (int round = 0; round < 3; ++round) {
    const auto a = live_cursor.select_batch(live, 7);
    const auto b = restored_cursor.select_batch(restored, 7);
    EXPECT_EQ(a.indices, b.indices) << "round " << round;
  }
}

TEST(SnapshotSections, JournalHeaderRoundTrips) {
  Snapshot snap;
  snap.put_journal_header(123456789ull);
  EXPECT_EQ(reencode(snap).journal_header(), 123456789ull);
}

TEST(SnapshotSections, MissingSectionThrowsTyped) {
  const Snapshot empty;
  EXPECT_FALSE(empty.has(SectionId::kWheelSet));
  EXPECT_THROW((void)empty.wheel_set(), CorruptSnapshotError);
  EXPECT_THROW((void)empty.sharded_fitness(), CorruptSnapshotError);
  EXPECT_THROW((void)empty.dist_cursor(), CorruptSnapshotError);
  EXPECT_THROW((void)empty.journal_header(), CorruptSnapshotError);
}

TEST(SnapshotFile, WriteReadRoundTripAndNoTempResidue) {
  const std::string dir = scratch_dir("snapfile");
  const std::string path = dir + "/state.snap";
  Snapshot snap;
  snap.put_wheel_set(seasoned_wheel_set());
  snap.put_journal_header(7);
  snap.write(path);

  EXPECT_EQ(Snapshot::read(path).encode(), snap.encode());
  // The atomic-rename commit must not leave its temp file behind.
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(SnapshotFile, OverwriteIsAllOrNothing) {
  const std::string dir = scratch_dir("snapover");
  const std::string path = dir + "/state.snap";
  Snapshot first;
  first.put_journal_header(1);
  first.write(path);
  Snapshot second;
  second.put_wheel_set(seasoned_wheel_set());
  second.put_journal_header(2);
  second.write(path);
  EXPECT_EQ(Snapshot::read(path).journal_header(), 2u);
}

TEST(SnapshotCorruption, BadMagicVersionAndTruncation) {
  Snapshot snap;
  snap.put_wheel_set(seasoned_wheel_set());
  const std::vector<std::uint8_t> clean = snap.encode();

  auto tampered = clean;
  tampered[0] ^= 0xFF;  // magic
  EXPECT_THROW((void)Snapshot::decode(tampered), CorruptSnapshotError);

  tampered = clean;
  tampered[8] = 0xEE;  // version (little-endian low byte)
  EXPECT_THROW((void)Snapshot::decode(tampered), CorruptSnapshotError);

  // Every proper prefix is rejected: unlike the draw log, a snapshot is
  // committed atomically, so truncation always means corruption.
  for (std::size_t len = 0; len < clean.size(); ++len) {
    EXPECT_THROW(
        (void)Snapshot::decode(std::span(clean.data(), len)),
        CorruptSnapshotError)
        << "prefix length " << len;
  }
}

TEST(SnapshotCorruption, EveryBitFlipIsRejectedOrDropsTheSection) {
  Snapshot snap;
  snap.put_wheel_set(seasoned_wheel_set());
  const std::vector<std::uint8_t> clean = snap.encode();

  auto tampered = clean;
  for (std::size_t byte = 0; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      tampered[byte] = static_cast<std::uint8_t>(tampered[byte] ^ (1u << bit));
      // A flip in the payload or framing throws; the one survivable flip is
      // in the section-id field, which renames the (still CRC-clean)
      // section — the typed getter then reports it absent.  Either way the
      // corruption can never be mistaken for the original state.
      try {
        const Snapshot decoded = Snapshot::decode(tampered);
        EXPECT_FALSE(decoded.has(SectionId::kWheelSet))
            << "byte " << byte << " bit " << bit
            << ": flipped snapshot decoded with its section intact";
      } catch (const CorruptSnapshotError&) {
        // expected for the overwhelming majority of flips
      }
      tampered[byte] = static_cast<std::uint8_t>(tampered[byte] ^ (1u << bit));
    }
  }
}

TEST(SnapshotFile, MissingFileThrowsIoError) {
  EXPECT_THROW((void)Snapshot::read(scratch_dir("gone") + "/nope.snap"),
               PersistIoError);
}

}  // namespace
}  // namespace lrb::persist
