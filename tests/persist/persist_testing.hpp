// Shared helpers for the lrb::persist suite: scratch directories and
// canonical live objects whose streams the round-trip tests continue.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/wheel_set.hpp"
#include "dist/sharding.hpp"

namespace lrb::persist::testing {

/// A fresh, empty directory under the gtest temp root, unique per test.
/// Recreated on construction so reruns never see stale files.
inline std::string scratch_dir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "lrb_persist_" + tag + "_" +
                    info->test_suite_name() + "_" + info->name();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A WheelSet exercised past its pristine state: several wheels (zeros
/// included), some draws consumed (non-zero cursors), some updates applied
/// (membership flips and re-weights) — the state a mid-session snapshot
/// sees.
inline core::WheelSet seasoned_wheel_set(std::uint64_t set_seed = 42) {
  core::WheelSet ws(set_seed);
  (void)ws.add_wheel(std::vector<double>{0.0, 1.0, 2.0, 3.0});
  (void)ws.add_wheel(std::vector<double>{5.0, 0.25, 1e-3, 7.5, 0.0, 2.0});
  (void)ws.add_wheel(std::vector<double>{1e300, 2e300});
  (void)ws.add_wheel(std::vector<double>{0.5, 0.5, 0.5});
  const std::vector<core::WheelSet::DrawRequest> reqs{{0, 3}, {1, 5}, {3, 2}};
  (void)ws.draw_batch(reqs);
  ws.update(1, 4, 0.125);   // zero -> positive
  ws.update(0, 3, 0.0);     // positive -> zero
  ws.update(2, 0, 1.5e300); // value change, huge magnitude
  (void)ws.draw_batch(reqs);
  return ws;
}

/// A ShardedFitness with uneven shards, an emptied entry, and a history of
/// updates.
inline dist::ShardedFitness seasoned_shards(std::size_t ranks = 4) {
  std::vector<double> fitness{0.0, 1.0,  2.0, 3.0, 0.5, 1e-3,
                              7.0, 0.25, 0.0, 4.0, 2.5, 0.125};
  dist::ShardedFitness shards(fitness, ranks);
  shards.update(3, 0.0);
  shards.update(5, 2e-3);
  shards.update(8, 9.75);
  shards.update(3, 1.0);
  return shards;
}

/// Draws `draws` winners per wheel from every wheel, one batched pass.
inline std::vector<std::size_t> draw_all(core::WheelSet& ws,
                                         std::size_t draws) {
  std::vector<core::WheelSet::DrawRequest> reqs;
  for (std::size_t w = 0; w < ws.wheels(); ++w) reqs.push_back({w, draws});
  return ws.draw_batch(reqs);
}

}  // namespace lrb::persist::testing
