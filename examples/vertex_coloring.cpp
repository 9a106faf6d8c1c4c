// Roulette-driven vertex coloring (paper reference [4]'s problem).
//
//   $ ./vertex_coloring [--vertices=80] [--density=0.4] [--ants=16]
//                       [--iters=25] [--seed=3]
//                       [--rule=bidding|cdf|independent|greedy]
//
// Colors a random G(n,p) graph with the saturation-roulette heuristic and
// compares the selection rules head-to-head on the same graph.
#include <cstdio>
#include <iostream>

#include "lrb.hpp"

int main(int argc, char** argv) try {
  const lrb::CliArgs args(argc, argv);
  const std::size_t n = args.get_u64("vertices", 80);
  const double density = args.get_double("density", 0.4);
  const std::uint64_t seed = args.get_u64("seed", 3);

  lrb::aco::ColoringParams params;
  params.num_ants = args.get_u64("ants", 16);
  params.iterations = args.get_u64("iters", 25);

  const auto graph = lrb::aco::random_gnp(n, density, seed);
  std::printf("G(%zu, %.2f): %zu edges, max degree %zu\n\n", n, density,
              graph.num_edges(), graph.max_degree());

  if (args.has("rule")) {
    params.rule = lrb::aco::parse_selection_rule(args.get_string("rule", "bidding"));
    const auto r = lrb::aco::color_graph(graph, params, seed + 1);
    std::printf("rule=%s -> %d colors (proper: %s)\n",
                std::string(lrb::aco::to_string(params.rule)).c_str(),
                r.num_colors,
                graph.is_proper_coloring(r.colors) ? "yes" : "NO");
    return 0;
  }

  // Head-to-head on the same graph.
  lrb::Table table({"selection rule", "colors used", "selections", "time"});
  table.set_align(0, lrb::Align::kLeft);
  for (const auto rule :
       {lrb::aco::SelectionRule::kBidding, lrb::aco::SelectionRule::kCdf,
        lrb::aco::SelectionRule::kIndependent, lrb::aco::SelectionRule::kGreedy}) {
    params.rule = rule;
    lrb::WallTimer timer;
    const auto r = lrb::aco::color_graph(graph, params, seed + 1);
    table.add_row({std::string(lrb::aco::to_string(rule)),
                   std::to_string(r.num_colors),
                   lrb::format_count(r.selections),
                   lrb::format_duration(timer.elapsed_seconds())});
  }
  table.print(std::cout);
  std::printf("\ngreedy upper bound (max degree + 1): %zu\n",
              graph.max_degree() + 1);
  return 0;
} catch (const lrb::InvalidArgumentError& e) {
  std::fprintf(stderr, "vertex_coloring: %s\n", e.what());
  return 2;
}
