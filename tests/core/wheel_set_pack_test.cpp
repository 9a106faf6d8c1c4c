// WheelSet::update keeps each wheel's packed active set sorted by local
// index at all times: a re-weight patches its slot, a zero <-> positive flip
// shifts the rest of the pack.  A seeded update script drives every kind of
// edit through wheels of 8, 64 and 512 items, and after every few updates
// each touched wheel must draw exactly what a serial DeterministicBidder
// over its current values draws at the same cursor, on every dispatch
// target.  A pack that is out of order, keeps a stale 1/f, or disagrees
// with the positive count shows up as a wrong winner or a wrong count.
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/deterministic.hpp"
#include "core/fitness.hpp"
#include "core/wheel_set.hpp"
#include "simd/simd_testing.hpp"

namespace lrb::core {
namespace {

using lrb::simd::testing::available_targets;
using lrb::simd::testing::ScopedTarget;

class PackScript {
 public:
  explicit PackScript(std::uint64_t seed) : set_(seed), rng_(seed) {
    for (const std::size_t n : {8u, 64u, 512u}) {
      std::vector<double> f(n);
      // Every third item starts at zero; the first and last are positive so
      // the script can erase and re-insert both ends of the pack.
      for (std::size_t i = 0; i < n; ++i) {
        f[i] = (i % 3 == 1) ? 0.0 : normal();
      }
      (void)set_.add_wheel(f);
      mirror_.push_back(f);
    }
  }

  [[nodiscard]] std::size_t wheels() const { return mirror_.size(); }
  [[nodiscard]] std::size_t size(std::size_t w) const {
    return mirror_[w].size();
  }
  [[nodiscard]] double value(std::size_t w, std::size_t i) const {
    return mirror_[w][i];
  }

  /// Applies one update to the arena and its mirror; every third update
  /// checks the wheels touched since the last check.
  void update(std::size_t w, std::size_t i, double f) {
    set_.update(w, i, f);
    mirror_[w][i] = f;
    touched_.insert(w);
    if (++since_check_ == 3) check();
  }

  /// Each touched wheel: values and counts match the mirror, and one draw
  /// per dispatch target equals the serial bidder at the wheel's cursor.
  void check() {
    for (const std::size_t w : touched_) {
      const std::size_t positives = count_nonzero(mirror_[w]);
      ASSERT_EQ(set_.active_count(w), positives) << "wheel " << w;
      for (std::size_t i = 0; i < size(w); ++i) {
        ASSERT_EQ(set_.value(w, i), mirror_[w][i]) << "wheel " << w;
      }
      for (const auto target : available_targets()) {
        ScopedTarget scope(target);
        ASSERT_TRUE(scope.forced());
        if (positives == 0) {
          EXPECT_THROW((void)set_.draw_one(w), InvalidFitnessError);
          continue;
        }
        DeterministicBidder serial(set_.seed(w));
        serial.seek(set_.cursor(w));
        const std::size_t expected = serial.select(set_.wheel_values(w));
        EXPECT_EQ(set_.draw_one(w), expected)
            << "wheel " << w << " target " << static_cast<int>(target)
            << " after update " << updates_checked_;
      }
    }
    std::size_t total = 0;
    for (const auto& f : mirror_) total += count_nonzero(f);
    EXPECT_EQ(set_.total_active(), total);
    updates_checked_ += since_check_;
    since_check_ = 0;
    touched_.clear();
  }

  /// A value spread over six orders of magnitude, so re-weights move an
  /// item's bid bound both up and down by far more than a draw's noise.
  double normal() {
    return std::ldexp(1.0 + unit_(rng_), static_cast<int>(rng_() % 40) - 20);
  }
  double subnormal() {
    return std::numeric_limits<double>::denorm_min() *
           static_cast<double>(1 + rng_() % 1000000);
  }
  std::uint64_t next() { return rng_(); }

 private:
  WheelSet set_;
  std::vector<std::vector<double>> mirror_;
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  std::set<std::size_t> touched_;
  std::size_t since_check_ = 0;
  std::size_t updates_checked_ = 0;
};

TEST(WheelSetPack, SeededUpdateScriptDrawsLikeTheSerialBidder) {
  PackScript s(20261020);
  for (std::size_t w = 0; w < s.wheels(); ++w) {
    const std::size_t n = s.size(w);
    const std::size_t mid = n / 2;
    // First slot: erase, then insert before every other positive item.
    s.update(w, 0, 0.0);
    s.update(w, 0, s.normal());
    // Last slot: erase, then insert a subnormal behind every other item.
    s.update(w, n - 1, 0.0);
    s.update(w, n - 1, s.subnormal());
    // A middle slot: flip it either way, then flip it back.
    const bool mid_positive = s.value(w, mid) > 0.0;
    s.update(w, mid, mid_positive ? 0.0 : s.normal());
    s.update(w, mid, mid_positive ? s.normal() : 0.0);
    // Re-weights that move a bound a long way: a heavy item must win
    // through its new 1/f, and the subnormal at the end goes normal.
    s.update(w, 2, 1e6);
    s.update(w, 2, 1e-6);
    s.update(w, n - 1, s.normal());
  }
  s.check();

  // Random edits: a third flip to zero, a tenth are subnormal, the rest
  // are re-weights or zero -> positive flips.
  for (int step = 0; step < 600; ++step) {
    const std::size_t w = s.next() % s.wheels();
    const std::size_t i = s.next() % s.size(w);
    const std::uint64_t kind = s.next() % 10;
    const double f = kind < 3 ? 0.0 : kind == 3 ? s.subnormal() : s.normal();
    s.update(w, i, f);
  }
  s.check();

  // Empty the 8-item wheel, then refill it from the back, so every insert
  // lands in the first slot of the pack.
  const std::size_t small = 0;
  for (std::size_t i = 0; i < s.size(small); ++i) s.update(small, i, 0.0);
  s.check();
  for (std::size_t i = s.size(small); i-- > 0;) {
    s.update(small, i, s.normal());
  }
  s.check();
}

}  // namespace
}  // namespace lrb::core
