// A committed lrb-snap/v1 file written by an earlier build of the library,
// one that still kept a Kahan accumulator per wheel and a delta-maintained
// sum per shard and stored both in the snapshot: data/parent_v1.lrbsnap.
//
// That build made the state with the calls in make_wheel_set() and
// make_shards() below, wrote the file, restored it and drew the winners
// pinned here.  The file carries what today's encoder no longer writes: a
// non-zero Kahan compensation word, and a shard-sum word that differs in its
// last bits from the sum of the shard's values.  That build also deferred
// repacks, so one wheel's dirty byte is 1.  Today's reader must accept those
// words and that byte, drop them, and draw the same winners bit for bit.
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dist/selection.hpp"
#include "persist/io.hpp"
#include "persist/snapshot.hpp"
#include "persist/wire.hpp"
#include "simd/simd_testing.hpp"

namespace lrb::persist {
namespace {

using lrb::simd::testing::available_targets;
using lrb::simd::testing::ScopedTarget;

const std::string kFixture =
    std::string(LRB_PERSIST_DATA_DIR) + "/parent_v1.lrbsnap";

// The winners the writing build drew from its own restore of the file.
const std::vector<std::size_t> kWheelWinners{2, 2, 1, 1, 0, 3,
                                             3, 5, 0, 0, 0, 0};
const std::vector<std::size_t> kWheelWinnersAfterUpdate{0, 1, 0, 0, 3};
const std::vector<std::size_t> kDistWinners{8, 8, 9, 8, 5, 1, 7, 7};
const std::vector<std::size_t> kStreamWinners{0, 9, 8, 0, 7, 8};

core::WheelSet make_wheel_set() {
  core::WheelSet ws(2024);
  (void)ws.add_wheel(std::vector<double>{0.1, 0.2, 0.3, 0.0});
  (void)ws.add_wheel(std::vector<double>{5.0, 0.25, 1e-3, 7.5, 0.0, 2.0});
  (void)ws.add_wheel(std::vector<double>{0.7, 0.0, 0.0});
  const std::vector<core::WheelSet::DrawRequest> first{{0, 3}, {1, 4}, {2, 2}};
  (void)ws.draw_batch(first);
  ws.update(1, 2, 0.3);
  ws.update(0, 3, 0.6);  // zero -> positive: the writer's repack was pending
  return ws;
}

dist::ShardedFitness make_shards() {
  dist::ShardedFitness sf(
      std::vector<double>{0.1, 0.2, 0.3, 0.0, 1.5, 2.5, 0.0, 0.4, 0.7, 1e-3},
      3);
  for (const auto& [index, f] :
       std::vector<std::pair<std::size_t, double>>{{0, 0.9}, {3, 0.05},
                                                   {4, 0.0}, {2, 0.15},
                                                   {1, 0.7}, {5, 0.3},
                                                   {9, 0.11}}) {
    sf.update(index, f);
  }
  return sf;
}

/// The payload of section `id`, found by walking the container framing.
std::vector<std::uint8_t> raw_section(std::span<const std::uint8_t> bytes,
                                      SectionId id) {
  ByteReader r(bytes, WireDomain::kSnapshot, "fixture");
  (void)r.bytes(8, "magic");
  (void)r.u32("version");
  const std::uint32_t count = r.u32("section count");
  for (std::uint32_t s = 0; s < count; ++s) {
    const std::uint32_t sid = r.u32("section id");
    const auto payload = r.bytes(r.u64("length"), "payload");
    (void)r.u32("crc");
    if (sid == static_cast<std::uint32_t>(id)) {
      return {payload.begin(), payload.end()};
    }
  }
  ADD_FAILURE() << "fixture has no section " << static_cast<int>(id);
  return {};
}

TEST(ParentFixture, CarriesTheOldSumWords) {
  // Guards the fixture itself: it must hold what the restore test claims.
  const std::vector<std::uint8_t> bytes = read_file(kFixture);
  ASSERT_LT(bytes.size(), 4096u);
  const auto ws_bytes = raw_section(bytes, SectionId::kWheelSet);
  ByteReader ws(ws_bytes, WireDomain::kSnapshot, "fixture WheelSet");
  (void)ws.u64("set seed");
  const std::uint64_t wheels = ws.u64("wheels");
  const std::uint64_t items = ws.u64("items");
  // offsets, values, seeds, cursors
  (void)ws.bytes(8 * ((wheels + 1) + items + 2 * wheels), "skipped");
  EXPECT_EQ(ws.f64("wheel 0 kahan sum"), 1.2000000000000002);
  EXPECT_NE(ws.f64("wheel 0 kahan compensation"), 0.0);
  (void)ws.bytes(8 * 2 * (wheels - 1) + 8 * wheels, "sums, counts");
  EXPECT_EQ(ws.u8("dirty 0"), 1u);
  EXPECT_EQ(ws.u8("dirty 1"), 0u);
  EXPECT_EQ(ws.u8("dirty 2"), 0u);

  const auto sf_bytes = raw_section(bytes, SectionId::kShardedFitness);
  ByteReader sf(sf_bytes, WireDomain::kSnapshot, "fixture ShardedFitness");
  const std::uint64_t ranks = sf.u64("ranks");
  const std::uint64_t n = sf.u64("n");
  (void)sf.bytes(8 * (n + ranks + 1), "values, boundaries");
  (void)sf.f64("rank 0 sum");
  const double stored = sf.f64("rank 1 sum");
  EXPECT_NE(stored, make_shards().shard_sum(1))
      << "the fixture's shard sum must differ from the recomputed one";
}

TEST(ParentFixture, RestoresAndDrawsThePinnedWinners) {
  const Snapshot snap = Snapshot::read(kFixture);
  for (const auto target : available_targets()) {
    ScopedTarget scope(target);
    ASSERT_TRUE(scope.forced());
    core::WheelSet ws = snap.wheel_set();
    const std::vector<core::WheelSet::DrawRequest> next{{0, 4}, {1, 4}, {2, 4}};
    EXPECT_EQ(ws.draw_batch(next), kWheelWinners)
        << "target " << static_cast<int>(target);
    ws.update(2, 1, 0.9);
    const std::vector<core::WheelSet::DrawRequest> after{{2, 3}, {0, 2}};
    EXPECT_EQ(ws.draw_batch(after), kWheelWinnersAfterUpdate)
        << "target " << static_cast<int>(target);

    const dist::ShardedFitness sf = snap.sharded_fitness();
    dist::DeterministicDistributedBidder cursor = snap.dist_cursor();
    EXPECT_EQ(cursor.select_batch(sf, 8).indices, kDistWinners)
        << "target " << static_cast<int>(target);
    EXPECT_EQ(dist::distributed_bidding_batch(sf, 6, 5).indices,
              kStreamWinners)
        << "target " << static_cast<int>(target);
  }
}

TEST(ParentFixture, RestoredStateEqualsTheRebuiltState) {
  // Values, seeds and cursors are all the fixture holds once its old
  // words and dirty byte are dropped: re-encoding its restore gives the
  // bytes of the same state rebuilt by today's code.
  const Snapshot snap = Snapshot::read(kFixture);
  Snapshot restored;
  restored.put_wheel_set(snap.wheel_set());
  restored.put_sharded_fitness(snap.sharded_fitness());
  Snapshot rebuilt;
  rebuilt.put_wheel_set(make_wheel_set());
  rebuilt.put_sharded_fitness(make_shards());
  EXPECT_EQ(restored.encode(), rebuilt.encode());
}

}  // namespace
}  // namespace lrb::persist
