// Umbrella header: the full public API of the lrb library.
//
// lrb reproduces Nakano's "Logarithmic Random Bidding for the Parallel
// Roulette Wheel Selection with Precise Probabilities" (IPPS 2024) as a
// production library: the bidding selector, every classical baseline, a
// PRAM simulator for model-level validation, parallel runtime, statistics,
// and ACO applications.
//
// Quick start (see examples/quickstart.cpp):
//
//   std::vector<double> fitness = {0, 1, 2, 3};
//   lrb::rng::Xoshiro256StarStar gen(42);
//   std::size_t i = lrb::core::select_bidding(fitness, gen);
//   // Pr[i == j] == fitness[j] / 6 exactly; index 0 is never selected.
#pragma once

#include "aco/ant_system.hpp"
#include "aco/graph.hpp"
#include "aco/tsp.hpp"
#include "aco/tsplib.hpp"
#include "aco/two_opt.hpp"
#include "aco/vertex_coloring.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/math.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/active_set.hpp"
#include "core/alias_table.hpp"
#include "core/baselines.hpp"
#include "core/batch.hpp"
#include "core/cdf_selector.hpp"
#include "core/deterministic.hpp"
#include "core/draw_many.hpp"
#include "core/fenwick_selector.hpp"
#include "core/fitness.hpp"
#include "core/logarithmic_bidding.hpp"
#include "core/selector_registry.hpp"
#include "core/streaming.hpp"
#include "core/wheel_set.hpp"
#include "core/without_replacement.hpp"
#include "dist/collectives.hpp"
#include "dist/selection.hpp"
#include "dist/sharding.hpp"
#include "dist/topology.hpp"
#include "fault/injecting_backend.hpp"
#include "fault/recovery.hpp"
#include "fault/schedule.hpp"
// obs/obs.hpp is always safe (macros compile to nothing under LRB_OBS=OFF);
// the concrete obs API only exists when the flight recorder is compiled in.
#include "obs/obs.hpp"
#if defined(LRB_OBS_ENABLED)
#include "obs/export.hpp"
#endif
#include "parallel/atomic_max.hpp"
#include "parallel/barrier.hpp"
#include "parallel/prefix_sum.hpp"
#include "parallel/reduce.hpp"
#include "parallel/thread_pool.hpp"
#include "persist/crc32c.hpp"
#include "persist/draw_log.hpp"
#include "persist/io.hpp"
#include "persist/journal.hpp"
#include "persist/replay.hpp"
#include "persist/snapshot.hpp"
#include "pram/machine.hpp"
#include "pram/programs.hpp"
#include "rng/engines.hpp"
#include "stats/gof.hpp"
#include "stats/histogram.hpp"
#include "stats/online.hpp"
#include "stats/special.hpp"
