// The benchmark's workloads and the input generators they share.
//
// Every workload is a closed loop with one client: the runner (main.cpp)
// issues op i, waits for its reply, checks it, then issues op i + 1.  Each
// workload derives all of its inputs from the --seed before timing starts;
// the library only ever sees the generated values and requests.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/wheel_set.hpp"
#include "rng/uniform.hpp"
#include "tracer.hpp"

namespace perfbench {

/// One named measurement, printed with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Counter deltas of obs::Registry::global() across one window.  In a build
/// without lrb::obs (-DLRB_OBS=OFF) every lookup is empty, and metrics
/// derived from counters are left out rather than reported as zero.
class ObsDelta {
 public:
  /// Snapshots the counters now (the window's start).
  ObsDelta();
  /// Snapshots again (the window's end).
  void close();
  [[nodiscard]] std::optional<std::uint64_t> get(const std::string& name) const;

 private:
  std::map<std::string, std::uint64_t> start_;
  std::map<std::string, std::uint64_t> delta_;
  bool enabled_ = false;
};

/// Outcome of one op as the runner accounts it.
struct OpResult {
  std::size_t winners = 0;  ///< draws answered by the op
  bool ok = true;           ///< false: the op's output failed a check
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the instance, arena or journal and warms it up.  Timed by the
  /// runner as set-up.
  virtual void setup() = 0;
  /// One op with no instrumentation.
  virtual OpResult run_op(std::size_t i) = 0;
  /// The same op with a span around every public call it makes, followed
  /// on some ops (outside the op's own span) by the stage split the
  /// per-layer metrics need.  Where the split re-derives winners from
  /// lower-level calls it compares them with the op's, so a mismatch fails
  /// the op.
  virtual OpResult run_traced_op(std::size_t i, Tracer& tracer) = 0;
  /// Correctness checks on the op just run, and upkeep between ops
  /// (journal rotation, colony restarts), outside op timing.  Returns how
  /// many ops failed (a durable segment audit can fail several).
  virtual std::size_t check_op(std::size_t i) = 0;
  /// End-of-run checks; returns how many ops they failed.
  virtual std::size_t finish() { return 0; }
  /// Per-layer metrics from the traced window's spans and counter deltas.
  virtual void layer_metrics(const Tracer& tracer, const ObsDelta& obs,
                             Metrics& out) const = 0;
  /// Appends the serialized request stream of ops [0, ops) — inputs and
  /// requests exactly as the library receives them.
  virtual void dump_requests(std::size_t ops,
                             std::vector<std::uint8_t>& out) const = 0;
};

/// Names in the order the benchmark runs them.
inline constexpr std::string_view kWorkloads[] = {"aco_tsp", "tenants",
                                                  "replay_1m",
                                                  "tenants_durable"};

/// Builds a workload (nullptr for an unknown name).  `workdir` is where
/// the durable workload keeps its journal files.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    std::string_view name, std::uint64_t seed, const std::string& workdir);

[[nodiscard]] std::unique_ptr<Workload> make_aco_workload(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_tenants_workload(
    std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_replay_workload(
    std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_durable_workload(
    std::uint64_t seed, const std::string& workdir);

// --- shared generators -----------------------------------------------------

/// Little-endian byte serializer for request-stream dumps.
class ByteSink {
 public:
  explicit ByteSink(std::vector<std::uint8_t>& out) : out_(out) {}
  void u64(std::uint64_t v);
  void f64(double v);

 private:
  std::vector<std::uint8_t>& out_;
};

/// Heavy-tailed positive fitness: Pareto(alpha = 1.5) on [1, inf).
template <class G>
[[nodiscard]] double heavy_tailed(G& gen) {
  return std::pow(lrb::rng::u01_open_closed(gen), -1.0 / 1.5);
}

/// One update request of the tenants generator.  A flip toggles an item
/// that starts at zero: it writes `value` when the item is zero at apply
/// time and 0 otherwise.  Items that start positive only ever receive new
/// positive values, so no wheel can run out of positive items, whatever
/// order ops are replayed in.
struct TenantUpdate {
  std::uint32_t wheel = 0;
  std::uint32_t item = 0;
  double value = 0.0;
  bool flip = false;
};

struct TenantOp {
  std::vector<TenantUpdate> updates;                  ///< applied first
  std::vector<lrb::core::WheelSet::DrawRequest> draws;  ///< one batch
  std::vector<std::size_t> first_winner;  ///< per draw entry, into winners
  std::size_t winners = 0;                ///< sum of draws
};

/// The multi-tenant input: `wheels` wheels whose popularity follows
/// Zipf(1.0).  Sizes are fixed by popularity rank — every 20 ranks hold one
/// n=512, five n=64 and fourteen n=8 wheels (5% / 25% / 70%) — and which
/// wheel id holds each rank is fixed too, so every seed offers the same
/// work and memory layout; the seed picks the values, which half of each
/// wheel is zero, and the requests.
struct TenantsInput {
  std::vector<std::size_t> offsets;  ///< wheels + 1 item offsets
  std::vector<double> values;        ///< initial fitness, concatenated
  std::vector<TenantOp> pool;        ///< ops cycle through this pool

  [[nodiscard]] std::size_t wheels() const { return offsets.size() - 1; }
  [[nodiscard]] const TenantOp& op(std::size_t i) const {
    return pool[i % pool.size()];
  }
  void dump(std::size_t ops, std::vector<std::uint8_t>& out) const;
};

inline constexpr std::size_t kTenantEntries = 1024;  ///< entries per op
inline constexpr std::size_t kTenantUpdates = kTenantEntries / 8;
inline constexpr std::size_t kTenantPoolOps = 256;

[[nodiscard]] TenantsInput make_tenants_input(std::size_t wheels,
                                              std::uint64_t seed);

/// Resolves an update against the arena's current value (see TenantUpdate).
[[nodiscard]] inline double resolve(const TenantUpdate& u, double current) {
  return u.flip && current > 0.0 ? 0.0 : u.value;
}

/// Builds an arena over `in`'s initial values.
[[nodiscard]] lrb::core::WheelSet make_arena(const TenantsInput& in,
                                             std::uint64_t seed);

}  // namespace perfbench
