// Small numeric helpers shared across modules: compensated summation,
// power-of-two utilities, and floating-point comparison helpers.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <string>

#include "common/error.hpp"

namespace lrb {

namespace detail {
/// Formats a fitness value for error messages: shortest round-trip-ish %g
/// ("nan", "-inf", "-2.5", "1e+308") — std::to_string's fixed six decimals
/// would render 5e-324 as "0.000000", which is exactly the value a user
/// debugging an InvalidFitnessError needs to see.
[[nodiscard]] inline std::string fitness_value_str(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", value);
  return std::string(buf);
}
}  // namespace detail

/// Kahan–Babuška compensated accumulator.  Used wherever we sum fitness
/// vectors or probabilities: plain summation of 1e6 doubles loses ~1e-10
/// relative accuracy, which is visible in chi-square statistics over 1e9
/// draws.
class KahanSum {
 public:
  constexpr void add(double x) noexcept {
    const double t = sum_ + x;
    if (std::abs(sum_) >= std::abs(x)) {
      comp_ += (sum_ - t) + x;
    } else {
      comp_ += (x - t) + sum_;
    }
    sum_ = t;
  }

  constexpr KahanSum& operator+=(double x) noexcept {
    add(x);
    return *this;
  }

  [[nodiscard]] constexpr double value() const noexcept { return sum_ + comp_; }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

/// Compensated sum of a span.
[[nodiscard]] inline double accurate_sum(std::span<const double> xs) noexcept {
  KahanSum s;
  for (double x : xs) s.add(x);
  return s.value();
}

/// ceil(log2(x)) for x >= 1.  ceil_log2(1) == 0.
[[nodiscard]] constexpr std::uint32_t ceil_log2(std::uint64_t x) noexcept {
  if (x <= 1) return 0;
  return static_cast<std::uint32_t>(64 - std::countl_zero(x - 1));
}

/// floor(log2(x)) for x >= 1.
[[nodiscard]] constexpr std::uint32_t floor_log2(std::uint64_t x) noexcept {
  if (x <= 1) return 0;
  return static_cast<std::uint32_t>(63 - std::countl_zero(x));
}

/// Smallest power of two >= x (x >= 1).
[[nodiscard]] constexpr std::uint64_t next_pow2(std::uint64_t x) noexcept {
  return x <= 1 ? 1 : std::uint64_t{1} << ceil_log2(x);
}

[[nodiscard]] constexpr bool is_pow2(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// Relative/absolute closeness in the style of Python's math.isclose.
[[nodiscard]] inline bool is_close(double a, double b, double rel_tol = 1e-9,
                                   double abs_tol = 0.0) noexcept {
  if (a == b) return true;
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  const double diff = std::abs(a - b);
  return diff <= rel_tol * std::max(std::abs(a), std::abs(b)) ||
         diff <= abs_tol;
}

/// Validates a fitness vector: finite, non-negative, and (optionally) with a
/// strictly positive total.  Returns the compensated total.
///
/// Every selector in src/core funnels through this, so the error surface is
/// uniform: a user passing NaN gets the same exception from every algorithm,
/// naming the offending index AND value — validation is hoisted to once per
/// batch everywhere (DrawManyKernel, DeterministicDrawKernel, ShardedFitness),
/// so carrying the context is cheap.
[[nodiscard]] inline double checked_fitness_total(std::span<const double> fitness,
                                                  bool require_positive_total = true) {
  LRB_REQUIRE(!fitness.empty(), InvalidFitnessError,
              "fitness vector must not be empty");
  KahanSum total;
  for (std::size_t i = 0; i < fitness.size(); ++i) {
    const double f = fitness[i];
    LRB_REQUIRE(std::isfinite(f), InvalidFitnessError,
                "fitness values must be finite (index " + std::to_string(i) +
                    ", value " + detail::fitness_value_str(f) + ")");
    LRB_REQUIRE(f >= 0.0, InvalidFitnessError,
                "fitness values must be non-negative (index " +
                    std::to_string(i) + ", value " +
                    detail::fitness_value_str(f) + ")");
    total.add(f);
  }
  const double t = total.value();
  if (require_positive_total) {
    LRB_REQUIRE(t > 0.0, InvalidFitnessError,
                "fitness vector must contain at least one positive value");
  }
  return t;
}

/// Number of strictly positive entries ("k" in the paper's Theorem 1).
[[nodiscard]] inline std::size_t count_nonzero(std::span<const double> fitness) noexcept {
  std::size_t k = 0;
  for (double f : fitness) k += (f > 0.0);
  return k;
}

/// Normalizes fitness into probabilities F_i = f_i / sum.  Writes into `out`
/// (same length).  Returns the total.
inline double normalize_fitness(std::span<const double> fitness,
                                std::span<double> out) {
  LRB_REQUIRE(fitness.size() == out.size(), InvalidArgumentError,
              "normalize_fitness: output span has wrong length");
  const double total = checked_fitness_total(fitness);
  for (std::size_t i = 0; i < fitness.size(); ++i) out[i] = fitness[i] / total;
  return total;
}

}  // namespace lrb
