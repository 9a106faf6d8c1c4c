// Restore edge cases: the states a snapshot is most likely to catch a
// production arena in — mid-batch cursors, flips with no draw after them,
// emptied shards — and the operations most likely to disturb a restored
// object (reshards, further updates).
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dist/selection.hpp"
#include "persist/snapshot.hpp"
#include "persist_testing.hpp"
#include "simd/simd_testing.hpp"

namespace lrb::persist {
namespace {

using lrb::persist::testing::draw_all;
using lrb::persist::testing::seasoned_shards;
using lrb::simd::testing::available_targets;
using lrb::simd::testing::ScopedTarget;

core::WheelSet restore(const core::WheelSet& ws) {
  Snapshot snap;
  snap.put_wheel_set(ws);
  return Snapshot::decode(snap.encode()).wheel_set();
}

TEST(RestoreEdge, MidBatchCursorsContinueExactly) {
  // Uneven per-wheel draw counts leave every cursor at a different offset —
  // the restored arena must resume each Philox stream mid-flight.
  core::WheelSet live(7);
  (void)live.add_wheel(std::vector<double>{1, 2, 3, 4, 5});
  (void)live.add_wheel(std::vector<double>{0.5, 0.5});
  (void)live.add_wheel(std::vector<double>{10, 0, 20});
  const std::vector<core::WheelSet::DrawRequest> uneven{{0, 13}, {1, 1}, {2, 6}};
  (void)live.draw_batch(uneven);
  ASSERT_NE(live.cursor(0), live.cursor(1));

  core::WheelSet restored = restore(live);
  for (std::size_t w = 0; w < live.wheels(); ++w) {
    ASSERT_EQ(restored.cursor(w), live.cursor(w)) << "wheel " << w;
  }
  EXPECT_EQ(draw_all(live, 9), draw_all(restored, 9));
}

TEST(RestoreEdge, PendingZeroPositiveRepackSurvives) {
  // Flip memberships WITHOUT drawing: update() shifts the packs at once,
  // and the snapshot must capture the state the flips left.
  core::WheelSet live(11);
  (void)live.add_wheel(std::vector<double>{1.0, 0.0, 3.0, 0.0});
  (void)live.add_wheel(std::vector<double>{2.0, 2.0});
  live.update(0, 1, 5.0);  // zero -> positive, no draw after it
  live.update(0, 0, 0.0);  // positive -> zero, same wheel
  live.update(1, 0, 0.0);  // second wheel goes to one survivor

  core::WheelSet restored = restore(live);
  EXPECT_EQ(restored.active_count(0), live.active_count(0));
  EXPECT_EQ(restored.total_active(), live.total_active());
  // Draws read the packs the flips left on both sides.
  EXPECT_EQ(draw_all(live, 12), draw_all(restored, 12));
  // And the state after those draws still round-trips.
  core::WheelSet restored_again = restore(live);
  EXPECT_EQ(draw_all(live, 5), draw_all(restored_again, 5));
}

TEST(RestoreEdge, EmptiedWheelRoundTripsWithExactZeroSum) {
  core::WheelSet live(3);
  (void)live.add_wheel(std::vector<double>{0.1, 0.2, 0.3});
  (void)live.add_wheel(std::vector<double>{1.0, 1.0});
  live.update(0, 0, 0.0);
  live.update(0, 1, 0.0);
  live.update(0, 2, 0.0);  // wheel 0 fully emptied

  core::WheelSet restored = restore(live);
  EXPECT_EQ(restored.active_count(0), 0u);
  // Refill after restore and draw from both: streams still agree.
  live.update(0, 1, 4.0);
  restored.update(0, 1, 4.0);
  EXPECT_EQ(draw_all(live, 8), draw_all(restored, 8));
}

TEST(RestoreEdge, EmptiedShardRestoresExactZeroAndRefills) {
  std::vector<double> fitness{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  dist::ShardedFitness live(fitness, 3);
  live.update(2, 0.0);
  live.update(3, 0.0);  // rank 1's shard {2,3} emptied
  ASSERT_EQ(live.shard_sum(1), 0.0);

  Snapshot snap;
  snap.put_sharded_fitness(live);
  dist::ShardedFitness restored = Snapshot::decode(snap.encode())
                                      .sharded_fitness();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(restored.shard_sum(1)),
            std::bit_cast<std::uint64_t>(0.0))
      << "an emptied shard must restore to exactly +0.0, no residue";

  // The emptied shard never wins; streams agree before and after a refill.
  dist::DeterministicDistributedBidder ca(5);
  dist::DeterministicDistributedBidder cb(5);
  EXPECT_EQ(ca.select_batch(live, 6).indices,
            cb.select_batch(restored, 6).indices);
  live.update(3, 2.5);
  restored.update(3, 2.5);
  EXPECT_EQ(ca.select_batch(live, 6).indices,
            cb.select_batch(restored, 6).indices);
}

TEST(RestoreEdge, RestoreThenReshardKeepsTheStream) {
  dist::ShardedFitness live = seasoned_shards(4);
  dist::DeterministicDistributedBidder live_cursor(17);
  (void)live_cursor.select_batch(live, 3);

  Snapshot snap;
  snap.put_sharded_fitness(live);
  snap.put_dist_cursor(live_cursor);
  const Snapshot decoded = Snapshot::decode(snap.encode());
  dist::ShardedFitness restored = decoded.sharded_fitness();
  dist::DeterministicDistributedBidder restored_cursor = decoded.dist_cursor();

  // Reshard BOTH (partition invariance: winners don't depend on P) to
  // different rank counts — the restored object must survive elastic
  // repartitioning exactly like the live one.
  (void)live.reshard(2);
  (void)restored.reshard(6);
  const auto a = live_cursor.select_batch(live, 10);
  const auto b = restored_cursor.select_batch(restored, 10);
  EXPECT_EQ(a.indices, b.indices);
}

TEST(RestoreEdge, EveryTargetRestoresEveryOtherTargetsSnapshot) {
  // Snapshot under one dispatch target, continue under another: the format
  // carries no target-dependent state, so all pairs must agree.
  const auto targets = available_targets();
  for (const auto save_target : targets) {
    std::vector<std::uint8_t> bytes;
    std::vector<std::size_t> reference;
    {
      ScopedTarget scope(save_target);
      core::WheelSet ws = lrb::persist::testing::seasoned_wheel_set(29);
      Snapshot snap;
      snap.put_wheel_set(ws);
      bytes = snap.encode();
      reference = draw_all(ws, 11);
    }
    for (const auto run_target : targets) {
      ScopedTarget scope(run_target);
      core::WheelSet restored = Snapshot::decode(bytes).wheel_set();
      EXPECT_EQ(draw_all(restored, 11), reference)
          << "saved under target " << static_cast<int>(save_target)
          << ", continued under " << static_cast<int>(run_target);
    }
  }
}

}  // namespace
}  // namespace lrb::persist
