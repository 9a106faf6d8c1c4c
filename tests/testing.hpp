// Shared helpers for the lrb test suite.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/fitness.hpp"
#include "stats/gof.hpp"
#include "stats/histogram.hpp"

namespace lrb::testing {

/// Draws `draws` selections from `select(i)` (a callable returning an index)
/// and returns the histogram.
template <typename SelectFn>
stats::SelectionHistogram collect(std::size_t arity, std::uint64_t draws,
                                  SelectFn&& select) {
  stats::SelectionHistogram hist(arity);
  for (std::uint64_t t = 0; t < draws; ++t) hist.record(select());
  return hist;
}

/// Asserts that `hist` is chi-square-consistent with the exact roulette
/// probabilities of `fitness` at significance `alpha`.
///
/// alpha = 1e-6 keeps the suite's aggregate false-failure rate negligible
/// (hundreds of seeded-deterministic tests) while still catching any real
/// bias: a wrong algorithm fails with p ~ 0 at these sample sizes.
inline void expect_matches_roulette(const stats::SelectionHistogram& hist,
                                    std::span<const double> fitness,
                                    double alpha = 1e-6) {
  // Zero-fitness indices must have exactly zero selections.
  for (std::size_t i = 0; i < fitness.size(); ++i) {
    if (fitness[i] == 0.0) {
      EXPECT_EQ(hist.count(i), 0u) << "zero-fitness index " << i << " selected";
    }
  }
  // With a single positive entry the chi-square is degenerate: every draw
  // must land there, which the zero checks above already enforce.
  if (lrb::count_nonzero(fitness) < 2) return;
  const auto expected = core::exact_probabilities(fitness);
  const auto gof = stats::chi_square_gof(hist, expected);
  EXPECT_GE(gof.p_value, alpha)
      << "chi2=" << gof.statistic << " dof=" << gof.dof
      << " p=" << gof.p_value;
}

/// Canonical fitness shapes used across property tests.
struct NamedFitness {
  const char* name;
  std::vector<double> fitness;
};

/// gtest prints a parameter by its case name, not its raw bytes.
inline void PrintTo(const NamedFitness& nf, std::ostream* os) {
  *os << nf.name;
}

inline std::vector<NamedFitness> canonical_fitness_cases() {
  return {
      {"paper_table1", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
      {"uniform4", {1, 1, 1, 1}},
      {"single", {0, 0, 5, 0}},
      {"two_to_one", {2, 1}},
      {"skewed", {1e-6, 1e-3, 1, 1e3}},
      {"mostly_zero", {0, 0, 0, 3, 0, 0, 1, 0, 0, 0, 0, 2, 0}},
      {"tiny_values", {1e-300, 2e-300, 3e-300}},
      {"huge_values", {1e300, 2e300}},
      {"many_equal", std::vector<double>(64, 0.5)},
  };
}

}  // namespace lrb::testing
