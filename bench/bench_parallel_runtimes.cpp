// Ablation A8 — the same bidding selection across every execution runtime
// the library ships, as a function of lane/thread count:
//
//   serial            : one-thread scan (reference)
//   pool-reduce       : ThreadPool sub-races + tree combine
//   pool-race         : ThreadPool atomic CRCW-style race
//   deterministic     : counter-based (thread-count invariant), pool
//
// All four produce the exact roulette distribution; this bench isolates the
// runtime overheads (pool wakeup, the shared race cell, Philox evaluation).
//
// Usage: bench_parallel_runtimes [--n=262144] [--reps=20] [--csv]
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/deterministic.hpp"
#include "core/logarithmic_bidding.hpp"
#include "rng/seed.hpp"
#include "stats/online.hpp"

using lrb::bench::mean_us;

int main(int argc, char** argv) {
  const lrb::CliArgs args(argc, argv);
  const std::size_t n = args.get_u64("n", 262144);
  const std::uint64_t reps = args.get_u64("reps", 20);
  const bool csv = args.get_bool("csv", false);

  lrb::bench::banner("A8", "execution runtimes for one bidding selection", reps);
  std::printf("n = %zu dense items; hardware lanes: %zu\n\n", n,
              lrb::parallel::hardware_lanes());

  std::vector<double> fitness(n);
  for (std::size_t i = 0; i < n; ++i) {
    fitness[i] = 1.0 + static_cast<double>(i % 17);
  }
  lrb::rng::SeedSequence seeds(99);

  lrb::Table table({"lanes", "serial us", "pool-reduce us", "pool-race us",
                    "deterministic us"});
  for (std::size_t lanes : {1u, 2u, 4u}) {
    lrb::parallel::ThreadPool pool(lanes);
    lrb::core::DeterministicBidder bidder(4242);

    const double t_serial = mean_us(reps, [&](std::uint64_t rep) {
      lrb::rng::Xoshiro256StarStar gen(seeds.child(rep));
      return lrb::core::select_bidding(fitness, gen);
    });
    const double t_reduce = mean_us(reps, [&](std::uint64_t rep) {
      return lrb::core::select_bidding_parallel(pool, fitness,
                                                seeds.subsequence(rep));
    });
    const double t_race = mean_us(reps, [&](std::uint64_t rep) {
      return lrb::core::select_bidding_race(pool, fitness,
                                            seeds.subsequence(rep));
    });
    const double t_det = mean_us(reps, [&](std::uint64_t) {
      return bidder.select(pool, fitness);
    });

    table.add_row({std::to_string(lanes), lrb::format_fixed(t_serial, 1),
                   lrb::format_fixed(t_reduce, 1), lrb::format_fixed(t_race, 1),
                   lrb::format_fixed(t_det, 1)});
  }
  csv ? table.print_csv(std::cout) : table.print(std::cout);

  std::printf("\nnote: the deterministic row pays ~2x for counter-based "
              "Philox bids in exchange for thread-count-invariant replay.\n");
  return 0;
}
