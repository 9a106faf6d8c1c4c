// aco_tsp: the paper's own application.  A persistent aco::AntSystem (Ant
// System, rule kBidding, alpha 1, beta 3, 32 ants) on a random 200-city
// Euclidean instance; one op is one colony iteration, run(seed_i) with
// iterations = 1, so pheromone carries over from op to op (up to a restart
// every kRestartOps iterations).
//
// The traced split replays sampled ants: AntSystem::construct_tour, then
// the same tour rebuilt row by row through core::select_bidding with the
// ant's generator, which must reproduce the tour exactly.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "aco/ant_system.hpp"
#include "aco/tsp.hpp"
#include "core/logarithmic_bidding.hpp"
#include "rng/seed.hpp"
#include "rng/xoshiro256.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kCities = 200;
constexpr std::size_t kAnts = 32;
constexpr double kBeta = 3.0;
/// Colony iterations before timing: enough for the best tour to beat the
/// nearest-neighbour tour, which finish() requires even of a short run.
constexpr std::size_t kWarmupOps = 30;
/// Ants replayed per traced op.
constexpr std::size_t kSplitAnts = 2;
/// Colony iterations between restarts.  With rho = 0.5 the pheromone of an
/// edge no ant uses halves every iteration and turns subnormal after about
/// 1,000 iterations, where its arithmetic costs many times more; a run
/// that crossed that age would time the float unit, not the selection.  A
/// restart is a fresh AntSystem on the same instance, outside op timing.
constexpr std::size_t kRestartOps = 256;

lrb::aco::AntSystemParams colony_params() {
  lrb::aco::AntSystemParams p;
  p.num_ants = kAnts;
  p.iterations = 1;
  p.alpha = 1.0;
  p.beta = kBeta;
  p.rule = lrb::aco::SelectionRule::kBidding;
  return p;
}

class AcoWorkload final : public Workload {
 public:
  explicit AcoWorkload(std::uint64_t seed) : seeds_(seed) {}

  void setup() override {
    instance_ = std::make_unique<lrb::aco::TspInstance>(
        lrb::aco::random_euclidean_instance(kCities, seeds_.child("instance")));
    colony_ = std::make_unique<lrb::aco::AntSystem>(*instance_, colony_params());
    nn_length_ =
        instance_->tour_length(instance_->nearest_neighbor_tour(0));
    // The heuristic AntSystem uses: (1 / max(d, 1e-9))^beta.
    heuristic_.assign(kCities * kCities, 0.0);
    for (std::size_t a = 0; a < kCities; ++a) {
      for (std::size_t b = 0; b < kCities; ++b) {
        if (a == b) continue;
        heuristic_[a * kCities + b] =
            std::pow(1.0 / std::max(instance_->distance(a, b), 1e-9), kBeta);
      }
    }
    for (std::size_t i = 0; i < kWarmupOps; ++i) {
      best_length_ = std::min(
          best_length_, colony_->run(seeds_.child("warmup", i)).best_length);
    }
  }

  OpResult run_op(std::size_t i) override {
    result_ = colony_->run(op_seed(i));
    return {static_cast<std::size_t>(result_.selections), true};
  }

  OpResult run_traced_op(std::size_t i, Tracer& t) override {
    t.set_op(i);
    {
      Tracer::Scope s(t, "aco_tsp.op", kAnts * (kCities - 1));
      Tracer::Scope r(t, "aco.run");
      result_ = colony_->run(op_seed(i));
    }
    bool same = true;
    Tracer::Scope split(t, "aco_tsp.split");
    for (std::size_t a = 0; a < kSplitAnts; ++a) {
      const std::size_t start = (i * kSplitAnts + a) % kCities;
      const std::uint64_t seed = seeds_.child("split", i * kSplitAnts + a);
      std::vector<std::size_t> tour;
      {
        Tracer::Scope s(t, "aco.construct_tour", kCities - 1);
        tour = colony_->construct_tour(start, seed);
      }
      same = same && rebuild_tour(start, seed, t) == tour;
    }
    return {static_cast<std::size_t>(result_.selections), same};
  }

  std::size_t check_op(std::size_t) override {
    if (++colony_age_ >= kRestartOps) {
      colony_.reset();  // one colony alive at a time keeps peak RSS flat
      colony_ = std::make_unique<lrb::aco::AntSystem>(*instance_, colony_params());
      colony_age_ = 0;
    }
    best_length_ = std::min(best_length_, result_.best_length);
    const auto& tour = result_.best_tour;
    if (tour.size() != kCities) return 1;
    std::vector<bool> seen(kCities, false);
    for (std::size_t c : tour) {
      if (c >= kCities || seen[c]) return 1;
      seen[c] = true;
    }
    // tour_length() also rejects a non-permutation, by throwing.
    return instance_->tour_length(tour) == result_.best_length ? 0 : 1;
  }

  std::size_t finish() override {
    // The colony's best tour must be no longer than the nearest-neighbour
    // tour it starts from.
    return best_length_ <= nn_length_ ? 0 : 1;
  }

  void layer_metrics(const Tracer& t, const ObsDelta&,
                     Metrics& out) const override {
    const Tracer::Stat tour = t.stat("aco.construct_tour");
    const Tracer::Stat select = t.stat("core.select_bidding");
    const Tracer::Stat u01 = t.stat("rng.u01_open_closed");
    const double tour_ns = static_cast<double>(tour.total_ns) / tour.calls;
    const double select_per_tour =
        static_cast<double>(select.total_ns) / rebuilt_tours_;
    out.push_back({"aco.tour_us", tour_ns / 1e3, "us"});
    out.push_back({"core.select_bidding_ns",
                   static_cast<double>(select.total_ns) / select.calls, "ns"});
    out.push_back({"core.select_share", select_per_tour / tour_ns, "ratio"});
    out.push_back({"rng.u01_ns_per_item",
                   static_cast<double>(u01.total_ns) / u01_items_, "ns"});
  }

  void dump_requests(std::size_t ops,
                     std::vector<std::uint8_t>& out) const override {
    ByteSink sink(out);
    const lrb::aco::TspInstance inst =
        lrb::aco::random_euclidean_instance(kCities, seeds_.child("instance"));
    for (const lrb::aco::Point& p : inst.cities()) {
      sink.f64(p.x);
      sink.f64(p.y);
    }
    for (std::size_t i = 0; i < ops; ++i) sink.u64(op_seed(i));
  }

 private:
  [[nodiscard]] std::uint64_t op_seed(std::size_t i) const {
    return seeds_.child("op", i);
  }

  /// One ant's tour rebuilt from the colony's pheromone: every row is the
  /// desirability of the unvisited cities (visited ones are zero, so k
  /// falls from n-1 to 1), and each step is one timed select_bidding call
  /// on the ant's generator.  One uniform per positive item is also timed
  /// on a separate generator, as the rng layer's share.
  std::vector<std::size_t> rebuild_tour(std::size_t start, std::uint64_t seed,
                                        Tracer& t) {
    const std::vector<double>& tau = colony_->pheromone();
    lrb::rng::Xoshiro256StarStar gen(seed);
    lrb::rng::Xoshiro256StarStar u01_gen(seed ^ 0x5bd1e995u);
    std::vector<bool> visited(kCities, false);
    std::vector<double> row(kCities, 0.0);
    std::vector<std::size_t> tour{start};
    visited[start] = true;
    std::size_t current = start;
    double sink = 0.0;
    for (std::size_t step = 1; step < kCities; ++step) {
      double total = 0.0;
      for (std::size_t c = 0; c < kCities; ++c) {
        row[c] = visited[c] ? 0.0
                            : tau[current * kCities + c] *
                                  heuristic_[current * kCities + c];
        total += row[c];
      }
      std::size_t next = kCities;
      if (total <= 0.0) {
        // AntSystem's pheromone-underflow fallback: nearest unvisited city.
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t c = 0; c < kCities; ++c) {
          if (!visited[c] && instance_->distance(current, c) < best) {
            best = instance_->distance(current, c);
            next = c;
          }
        }
      } else {
        Tracer::Scope s(t, "core.select_bidding", kCities - step);
        next = lrb::core::select_bidding(std::span<const double>(row), gen);
      }
      {
        Tracer::Scope s(t, "rng.u01_open_closed", kCities - step);
        for (std::size_t k = step; k < kCities; ++k) {
          sink += lrb::rng::u01_open_closed(u01_gen);
        }
      }
      u01_items_ += kCities - step;
      tour.push_back(next);
      visited[next] = true;
      current = next;
    }
    u01_sink_ += sink;
    ++rebuilt_tours_;
    return tour;
  }

  lrb::rng::SeedSequence seeds_;
  std::unique_ptr<lrb::aco::TspInstance> instance_;
  std::unique_ptr<lrb::aco::AntSystem> colony_;
  std::vector<double> heuristic_;
  lrb::aco::AntSystemResult result_;
  std::size_t colony_age_ = kWarmupOps;  // iterations since (re)start
  double nn_length_ = 0.0;
  double best_length_ = std::numeric_limits<double>::infinity();
  std::uint64_t rebuilt_tours_ = 0;
  std::uint64_t u01_items_ = 0;
  double u01_sink_ = 0.0;  // keeps the timed uniforms observable
};

}  // namespace

std::unique_ptr<Workload> make_aco_workload(std::uint64_t seed) {
  return std::make_unique<AcoWorkload>(seed);
}

}  // namespace perfbench
