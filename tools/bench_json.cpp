// bench_json — the repo's perf trajectory, as a machine-readable artifact.
//
// Runs the sweeps the batched hot path is accountable for and emits one JSON
// document (schema "lrb-bench-selection/v8", default BENCH_selection.json)
// that future PRs can regress against:
//
//   * serial_draw_many — n in {1e4, 1e6} x {dense, sparse} x m: ns/draw of a
//     loop of m select_bidding() calls vs one draw_many() batch vs one
//     alias-table build + m O(1) draws vs the counter-based deterministic
//     batch, with the draw_many and deterministic columns timed on BOTH the
//     best SIMD dispatch target and forced-scalar dispatch — the simd_*
//     speedup columns are the vector engine's report card, philox_cost_* the
//     price of the P-invariant replay contract;
//   * crossover — per (n, density): the measured bidding-vs-alias break-even
//     batch size m* (from the build/per-draw split of the timed totals) and
//     the implied kAliasCrossover factor n / (m* k) the heuristic in
//     core/batch.hpp is calibrated from;
//   * distributed_batch / deterministic_parity — unchanged from v3: the
//     CommLedger invariants and the end-to-end P-invariance contract;
//   * obs_overhead — ns/draw of the hot batched path at the headline shapes,
//     stamped with whether the lrb::obs flight recorder was compiled in.
//     The <= 2% instrumentation-tax contract spans TWO builds (-DLRB_OBS=ON
//     vs OFF), so a single run only records its side; CI's obs-overhead job
//     builds both, runs `bench_json --obs-overhead` in each, and diffs with
//     --compare --sections=obs_overhead --timing=enforce
//     --max-regression=0.02;
//   * fault_recovery — the price of surviving a rank failure: at each benched
//     P, a FaultInjectingBackend kills one rank mid-stream, the recovery
//     driver reshards onto P-1 and resumes, and the row records the reshard
//     wall time, the recovery-to-first-draw latency, the O(moved) word bill,
//     and whether the resumed sequence stayed bit-identical to serial (an
//     invariant, enforced in --quick too);
//   * wheelset — the multi-tenant regime (core/wheel_set.hpp): K small
//     wheels, one batched cross-wheel draw pass vs a loop of per-wheel
//     batch_select_deterministic() calls, over n in [8, 4096] x K in
//     [1e4, 1e6].  Bit-exactness of the batched pass against the per-wheel
//     serial reference is an invariant at every shape (enforced in --quick
//     too); the >= 3x speedup target lives where the arena exists to win —
//     the small-n rows (n = 8, K >= 1e4, B = 1), where the loop's per-call
//     overhead dominates — and is enforced there in full mode on vector
//     dispatch (the same simd_vector_active gate as the simd_* targets:
//     forced-scalar machines land near 2.3x because the keyed Philox tile
//     fill has no lanes to fill);
//   * persist — the durability tax (src/persist): snapshot write and
//     read+reconstruct wall time (us and MB/s) for WheelSet arenas at a few
//     state sizes, and draw-log append ns/record at each flush policy
//     (every record, batch=64, off — the fsync-bound / amortized / in-page-
//     cache price points).  Every snapshot row also restores its bytes on
//     every available dispatch target and checks the restored arena
//     continues the live winner stream bit-identically — folded into the
//     restore_bit_exact_everywhere invariant (enforced in --quick too).
//
// The full run (default) also enforces the acceptance invariants — draw_many
// >= 2x the serial loop and the SIMD engine >= 1.5x forced-scalar at
// n = 1e6, m = 1024 dense; the deterministic philox_cost reduced >= 25% by
// the SIMD kernels; the batched wheelset pass >= 3x the per-wheel loop at
// n = 8 (vector dispatch) and bit-exact everywhere; the exact ledger/parity
// facts at every P — and exits non-zero when a regression broke them.  --quick shrinks every dimension to
// smoke-test scale (seconds; used by CTest and the bench-smoke CI job) and
// skips only the timing-based assertions.
//
// Compare mode — the machine-readable regression diff CI runs instead of
// ad-hoc scripts:
//
//   bench_json --compare=old.json new.json [--max-regression=0.10]
//              [--timing=enforce|report] [--sections=invariants,serial,...]
//
// diffs the invariant blocks (any true -> false is fatal in both modes) and
// the matching *_ns_per_draw / *_us cells of the timing sections, rows keyed
// by (n, density, m) — or (n, density, p) for fault_recovery rows — (ratio
// > 1 + max-regression is fatal under --timing=enforce; --timing=report
// prints ratios without failing, for cross-machine diffs like CI-runner vs
// committed baseline).  By default every known section present in BOTH
// artifacts is compared — a missing section (e.g. no obs_overhead in a
// pre-v5 baseline, no fault_recovery in a pre-v6 one, no wheelset in a
// pre-v7 one, no persist in a pre-v8 one) is skipped with a note;
// --sections=... restricts the diff to exactly the named sections
// (invariants, serial, obs_overhead, fault_recovery, wheelset, persist) and
// then a missing one is an error.
//
// Schema history: v2 added the deterministic columns/parity, v3 the backend
// stamps; v4 adds the top-level "simd" object (best target, available
// targets), per-serial-row simd_target / draw_many_scalar_ns_per_draw /
// deterministic_scalar_ns_per_draw / simd_speedup_draw_many /
// simd_speedup_deterministic / philox_cost_scalar_dispatch, the "crossover"
// array, and the simd_* invariants; v5 adds the top-level "obs" object
// ({"compiled": bool} — deliberately NOT an invariant, so ON and OFF
// artifacts stay comparable) and the "obs_overhead" array — purely additive
// over v4; v6 adds the "fault_recovery" array (per-P reshard wall time,
// recovery-to-first-draw latency, moved-words bill, bit-exactness after a
// mid-stream kill) and the fault_recovery_bit_exact_everywhere invariant —
// purely additive over v5; v7 adds the "wheelset" array (rows keyed by
// (n, density, wheels, b): loop vs arena ns/draw, speedup, bit-exactness),
// the wheelset_* invariants, and small-n crossover rows (n in {256, 1024,
// 4096} dense — the data core/batch.hpp's two-regime alias_crossover_for()
// is fitted from) — purely additive over v6; v8 adds the "persist" array
// (snapshot write/restore us + MB/s rows keyed by op/n, log-append
// ns/record rows keyed by op/flush/n) and the restore_bit_exact_everywhere
// invariant — purely additive over v7.
//
// Usage: bench_json [--quick] [--reps=3] [--out=BENCH_selection.json]
//        bench_json --obs-overhead [--reps=9] [--out=BENCH_obs_overhead.json]
//        bench_json --compare=old.json new.json [--max-regression=0.10]
//                   [--timing=enforce|report] [--sections=serial,...]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/timer.hpp"
#include "core/alias_table.hpp"
#include "core/batch.hpp"
#include "core/deterministic.hpp"
#include "core/draw_many.hpp"
#include "core/logarithmic_bidding.hpp"
#include "core/wheel_set.hpp"
#include "dist/backend.hpp"
#include "dist/selection.hpp"
#include "fault/injecting_backend.hpp"
#include "fault/recovery.hpp"
#include "fault/schedule.hpp"
#include "json_read.hpp"
#include "persist/draw_log.hpp"
#include "persist/snapshot.hpp"
#include "rng/xoshiro256.hpp"
#include "simd/dispatch.hpp"

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON emitter: enough structure for nested objects/arrays, nothing
// the container doesn't already have.
class Json {
 public:
  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array(const std::string& key) { item(); out_ += quote(key) + ":["; fresh_ = true; }
  void end_array() { out_ += ']'; fresh_ = false; }
  void begin_object(const std::string& key) { item(); out_ += quote(key) + ":{"; fresh_ = true; }

  void field(const std::string& key, const std::string& value) {
    item();
    out_ += quote(key) + ":" + quote(value);
  }
  void field(const std::string& key, const char* value) {
    field(key, std::string(value));
  }
  void field(const std::string& key, double value) {
    item();
    // JSON has no inf/nan literal; a non-finite cell (e.g. an unbounded
    // crossover fit) must become null or the artifact breaks every parser
    // downstream, --compare included (which skips non-number cells).
    if (!std::isfinite(value)) {
      out_ += quote(key) + ":null";
      return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    out_ += quote(key) + ":" + buf;
  }
  void field(const std::string& key, std::uint64_t value) {
    item();
    out_ += quote(key) + ":" + std::to_string(value);
  }
  void field(const std::string& key, bool value) {
    item();
    out_ += quote(key) + ":" + (value ? "true" : "false");
  }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  static std::string quote(const std::string& s) { return "\"" + s + "\""; }
  void item() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  void open(char c) {
    item();
    out_ += c;
    fresh_ = true;
  }
  void close(char c) {
    out_ += c;
    fresh_ = false;
  }

  std::string out_;
  bool fresh_ = true;
};

// ---------------------------------------------------------------------------
// Serial sweep.

std::vector<double> make_fitness(std::size_t n, bool dense) {
  std::vector<double> fitness(n, 0.0);
  for (std::size_t i = 0; i < n; i += dense ? 1 : 10) {
    fitness[i] = 1.0 + static_cast<double>(i % 17);
  }
  return fitness;
}

volatile std::size_t g_sink = 0;  // keeps the timed loops honest

// Every timed cell below is lrb::time_best_of (common/timer.hpp) — the
// repo's one definition of best-of-reps.  The per-rep seed bump and sink
// write land inside the timed region; both are O(1) noise next to the m
// O(n)-or-O(k) draws being measured.

/// Best-of-reps ns/draw of `m_timed` select_bidding() calls.
double time_serial_loop(const std::vector<double>& fitness, std::size_t m_timed,
                        int reps) {
  std::uint64_t rep = 0;
  const double best = lrb::time_best_of(reps, [&] {
    lrb::rng::Xoshiro256StarStar gen(1000 + rep++);
    std::size_t sink = 0;
    for (std::size_t t = 0; t < m_timed; ++t) {
      sink ^= lrb::core::select_bidding(fitness, gen);
    }
    g_sink = g_sink ^ sink;
  });
  return best * 1e9 / static_cast<double>(m_timed);
}

/// Best-of-reps ns/draw of one draw_many() batch (kernel build included) on
/// the CURRENT dispatch target.
double time_draw_many(const std::vector<double>& fitness, std::size_t m,
                      int reps) {
  std::uint64_t rep = 0;
  const double best = lrb::time_best_of(reps, [&] {
    lrb::rng::Xoshiro256StarStar gen(2000 + rep++);
    const auto batch = lrb::core::draw_many(fitness, m, gen);
    g_sink = g_sink ^ batch.back();
  });
  return best * 1e9 / static_cast<double>(m);
}

/// Best-of-reps ns/draw of one alias build + m O(1) draws.
double time_alias(const std::vector<double>& fitness, std::size_t m, int reps) {
  std::uint64_t rep = 0;
  const double best = lrb::time_best_of(reps, [&] {
    lrb::rng::Xoshiro256StarStar gen(3000 + rep++);
    const lrb::core::AliasTable table(fitness);
    std::size_t sink = 0;
    for (std::size_t t = 0; t < m; ++t) sink ^= table.select(gen);
    g_sink = g_sink ^ sink;
  });
  return best * 1e9 / static_cast<double>(m);
}

/// Best-of-reps ns/draw of the counter-based deterministic batch
/// (batch_select_deterministic) over `m_timed` draws, on the CURRENT
/// dispatch target.  Like the serial baseline it is O(k) Philox blocks per
/// draw with no per-batch speed-up from m beyond the hoisted build, so it is
/// timed over a capped draw count and reported per draw.
double time_deterministic(const std::vector<double>& fitness,
                          std::size_t m_timed, int reps) {
  std::uint64_t rep = 0;
  const double best = lrb::time_best_of(reps, [&] {
    const auto batch =
        lrb::core::batch_select_deterministic(fitness, m_timed, 4000 + rep++);
    g_sink = g_sink ^ batch.back();
  });
  return best * 1e9 / static_cast<double>(m_timed);
}

/// Runs `fn()` with the scalar dispatch table forced, restoring the previous
/// target afterwards — the A/B half of every simd_* column.
template <typename Fn>
double timed_on_scalar(Fn&& fn) {
  const lrb::simd::Target previous = lrb::simd::active_target();
  (void)lrb::simd::force_target(lrb::simd::Target::kScalar);
  const double result = fn();
  (void)lrb::simd::force_target(previous);
  return result;
}

// ---------------------------------------------------------------------------
// Obs overhead section.

/// Whether this binary carries the lrb::obs flight recorder.  Stamped into
/// the top-level "obs" object and every obs_overhead row so --compare can
/// tell an ON artifact from an OFF one.
#if defined(LRB_OBS_ENABLED)
constexpr bool kObsCompiled = true;
#else
constexpr bool kObsCompiled = false;
#endif

/// The instrumentation tax, measured: best-of-reps ns/draw of draw_many()
/// at the headline dense shapes.  The <= 2% ON-vs-OFF contract needs two
/// binaries, so one run only records its own side; CI's obs-overhead job
/// diffs the two artifacts (see the header comment).
void emit_obs_overhead(Json& json, bool quick, int reps) {
  struct Shape {
    std::size_t n;
    std::size_t m;
  };
  const std::vector<Shape> shapes = quick
                                        ? std::vector<Shape>{{10'000, 64}}
                                        : std::vector<Shape>{{100'000, 1024},
                                                             {1'000'000, 1024}};
  std::printf("obs overhead sweep (reps=%d, obs_compiled=%s)...\n", reps,
              kObsCompiled ? "true" : "false");
  json.begin_array("obs_overhead");
  for (const Shape& shape : shapes) {
    const std::vector<double> fitness = make_fitness(shape.n, true);
    const double many_ns = time_draw_many(fitness, shape.m, reps);
    json.begin_object();
    json.field("n", static_cast<std::uint64_t>(shape.n));
    json.field("density", "dense");
    json.field("m", static_cast<std::uint64_t>(shape.m));
    json.field("reps", static_cast<std::uint64_t>(reps));
    json.field("draw_many_ns_per_draw", many_ns);
    json.field("obs_compiled", kObsCompiled);
    json.end_object();
    std::printf("  n=%-8zu m=%-5zu draw_many=%9.1f ns/draw\n", shape.n,
                shape.m, many_ns);
  }
  json.end_array();
}

/// Dedicated --obs-overhead mode: the overhead sweep alone, at full scale
/// and higher default reps (the 2% tolerance needs quieter cells than the
/// headline 10%).  Emits a document with an empty invariants block so
/// --compare accepts it; default out path avoids clobbering the committed
/// full artifact.
int run_obs_overhead(const lrb::CliArgs& args) {
  const int reps = static_cast<int>(args.get_u64("reps", 9));
  const std::string out_path =
      args.get_string("out", "BENCH_obs_overhead.json", "LRB_BENCH_OUT");
  Json json;
  json.begin_object();
  json.field("schema", "lrb-bench-selection/v8");
  json.field("generated_by", "tools/bench_json --obs-overhead");
  json.field("backend", std::string(lrb::dist::simulated_backend().name()));
  json.begin_object("simd");
  json.field("target", std::string(lrb::simd::target_name()));
  json.end_object();
  json.begin_object("obs");
  json.field("compiled", kObsCompiled);
  json.end_object();
  json.begin_object("config");
  json.field("mode", "obs-overhead");
  json.field("reps", static_cast<std::uint64_t>(reps));
  json.end_object();
  emit_obs_overhead(json, /*quick=*/false, reps);
  json.begin_object("invariants");
  json.end_object();
  json.end_object();

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_json: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json.str() << "\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Persist section: the durability tax (src/persist).

/// Builds a seasoned multi-wheel arena (phase-shifted dense fitness, a few
/// draws and updates so cursors, positive counts, and dirty flags are all
/// non-trivial) — the state every persist row snapshots.
lrb::core::WheelSet make_persist_arena(std::size_t wheels, std::size_t n) {
  lrb::core::WheelSet set(17);
  std::vector<double> f(n);
  for (std::size_t w = 0; w < wheels; ++w) {
    for (std::size_t i = 0; i < n; ++i) {
      f[i] = 1.0 + static_cast<double>((i * 13 + w * 7) % 100);
    }
    (void)set.add_wheel(f);
  }
  // Season: advance some cursors and leave a couple of pending repacks.
  std::vector<lrb::core::WheelSet::DrawRequest> warm;
  for (std::size_t w = 0; w < wheels; w += 1 + wheels / 16) {
    warm.push_back({w, 2});
  }
  (void)set.draw_batch(warm);
  set.update(0, 0, 0.0);
  set.update(wheels / 2, n / 2, 3.5);
  return set;
}

/// Snapshot write/restore wall time + MB/s at a few state sizes, draw-log
/// append ns/record at each flush policy, and the restore-side bit-exactness
/// check: the restored arena must continue the live winner stream
/// identically on EVERY available dispatch target (folded into the
/// restore_bit_exact_everywhere invariant, enforced in --quick too).
void emit_persist(Json& json, bool quick, int reps,
                  bool& restore_bit_exact_everywhere) {
  namespace fs = std::filesystem;
  namespace persist = lrb::persist;

  const fs::path dir = fs::temp_directory_path() / "lrb_bench_persist";
  fs::create_directories(dir);
  const std::string snap_path = (dir / "state.snap").string();
  const std::string log_path = (dir / "draws.log").string();

  struct ArenaShape {
    std::size_t wheels;
    std::size_t n;
  };
  const std::vector<ArenaShape> shapes =
      quick ? std::vector<ArenaShape>{{64, 32}}
            : std::vector<ArenaShape>{{1'000, 64},
                                      {10'000, 64},
                                      {100, 4'096}};
  std::printf("persist sweep (reps=%d)...\n", reps);
  json.begin_array("persist");

  for (const ArenaShape& shape : shapes) {
    lrb::core::WheelSet set = make_persist_arena(shape.wheels, shape.n);
    persist::Snapshot snap;
    snap.put_wheel_set(set);
    const std::size_t snap_bytes = snap.encode().size();
    const double mb = static_cast<double>(snap_bytes) / 1e6;

    const double write_s =
        lrb::time_best_of(reps, [&] { snap.write(snap_path); });
    std::size_t restored_items = 0;
    const double restore_s = lrb::time_best_of(reps, [&] {
      const persist::Snapshot loaded = persist::Snapshot::read(snap_path);
      restored_items = loaded.wheel_set().total_items();
    });
    g_sink = g_sink ^ restored_items;

    // Bit-exactness: the live arena continues from the snapshot point; a
    // restore of the same bytes must produce the identical continuation on
    // every dispatch target (the snapshot is taken before the live draws, so
    // both streams start at the same cursors).
    std::vector<lrb::core::WheelSet::DrawRequest> requests;
    requests.reserve(shape.wheels);
    for (std::size_t w = 0; w < shape.wheels; ++w) requests.push_back({w, 2});
    const auto live = set.draw_batch(requests);
    bool exact = true;
    const lrb::simd::Target previous = lrb::simd::active_target();
    for (lrb::simd::Target t :
         {lrb::simd::Target::kScalar, lrb::simd::Target::kAvx2,
          lrb::simd::Target::kAvx512}) {
      if (!lrb::simd::ops_for(t)) continue;
      (void)lrb::simd::force_target(t);
      lrb::core::WheelSet restored =
          persist::Snapshot::read(snap_path).wheel_set();
      if (restored.draw_batch(requests) != live) exact = false;
    }
    (void)lrb::simd::force_target(previous);
    restore_bit_exact_everywhere = restore_bit_exact_everywhere && exact;

    const double write_us = write_s * 1e6;
    const double restore_us = restore_s * 1e6;
    json.begin_object();
    json.field("op", "snapshot");
    json.field("n", static_cast<std::uint64_t>(set.total_items()));
    json.field("density", "dense");
    json.field("wheels", static_cast<std::uint64_t>(shape.wheels));
    json.field("snapshot_bytes", static_cast<std::uint64_t>(snap_bytes));
    json.field("snapshot_write_us", write_us);
    json.field("snapshot_restore_us", restore_us);
    json.field("snapshot_write_mb_per_s", mb / (write_s > 0 ? write_s : 1e-9));
    json.field("snapshot_restore_mb_per_s",
               mb / (restore_s > 0 ? restore_s : 1e-9));
    json.field("restore_bit_exact", exact);
    json.end_object();
    std::printf("  snapshot wheels=%-6zu n=%-5zu bytes=%-9zu write=%9.1f us  "
                "restore=%9.1f us  bit_exact=%s\n",
                shape.wheels, shape.n, snap_bytes, write_us, restore_us,
                exact ? "true" : "false");
  }

  // Log append at each flush policy.  kEveryRecord fsyncs per append — the
  // durability price point — so its record count is kept small; the batched
  // and unsynced policies amortize and are timed over many more records.
  struct LogCase {
    const char* flush;
    persist::FlushPolicy policy;
    std::size_t records;
  };
  const std::vector<LogCase> log_cases = {
      {"every", persist::FlushPolicy::kEveryRecord,
       quick ? std::size_t{64} : std::size_t{256}},
      {"batch64", persist::FlushPolicy::kBatch,
       quick ? std::size_t{512} : std::size_t{8'192}},
      {"off", persist::FlushPolicy::kNone,
       quick ? std::size_t{512} : std::size_t{8'192}},
  };
  for (const LogCase& c : log_cases) {
    persist::WheelDrawRecord rec;
    rec.wheel = 3;
    rec.winners = {1, 4, 1, 5};
    persist::DrawLogConfig config;
    config.policy = c.policy;
    config.batch_records = 64;
    const double total_s = lrb::time_best_of(reps, [&] {
      {
        persist::File f = persist::File::create_truncate(log_path);
      }
      persist::DrawLogWriter writer(log_path, config);
      for (std::size_t i = 0; i < c.records; ++i) writer.append(rec);
      writer.sync();  // every policy pays for durability at the end
    });
    const double append_ns =
        total_s * 1e9 / static_cast<double>(c.records);
    json.begin_object();
    json.field("op", "log_append");
    json.field("flush", c.flush);
    json.field("n", static_cast<std::uint64_t>(c.records));
    json.field("density", "dense");
    json.field("append_ns_per_record", append_ns);
    json.end_object();
    std::printf("  log_append flush=%-8s records=%-6zu %9.1f ns/record\n",
                c.flush, c.records, append_ns);
  }
  json.end_array();

  std::error_code ec;
  fs::remove_all(dir, ec);  // best-effort scratch cleanup
}

// ---------------------------------------------------------------------------
// Compare mode.

std::string read_file_or_die(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_json: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Key identifying a timing row across artifacts: (n, density, m) for the
/// serial-shaped sections, (n, density, p) for fault_recovery rows (which
/// are keyed by rank count, not batch size), (n, density, wheels, b) for
/// wheelset rows (keyed by tenant count and per-wheel draw count),
/// (op, flush, n) for persist rows (keyed by operation and flush policy).
std::string serial_row_key(const lrb::tools::JsonValue& row) {
  char buf[96];
  if (row.has("op")) {
    std::snprintf(buf, sizeof buf, "op=%s flush=%s n=%.0f",
                  row.at("op").as_string().c_str(),
                  row.has("flush") ? row.at("flush").as_string().c_str() : "-",
                  row.at("n").as_number(-1));
  } else if (row.has("wheels")) {
    std::snprintf(buf, sizeof buf, "n=%.0f density=%s wheels=%.0f b=%.0f",
                  row.at("n").as_number(-1),
                  row.at("density").as_string().c_str(),
                  row.at("wheels").as_number(-1),
                  row.at("b").as_number(-1));
  } else if (row.has("p")) {
    std::snprintf(buf, sizeof buf, "n=%.0f density=%s p=%.0f",
                  row.at("n").as_number(-1),
                  row.at("density").as_string().c_str(),
                  row.at("p").as_number(-1));
  } else {
    std::snprintf(buf, sizeof buf, "n=%.0f density=%s m=%.0f",
                  row.at("n").as_number(-1),
                  row.at("density").as_string().c_str(),
                  row.at("m").as_number(-1));
  }
  return std::string(buf);
}

/// The sections --compare knows how to diff.  "invariants" is the boolean
/// block; the rest are row arrays whose *_ns_per_draw / *_us cells are
/// compared by row key.
const std::vector<std::pair<std::string, std::string>> kTimingSections = {
    {"serial", "serial_draw_many"},
    {"obs_overhead", "obs_overhead"},
    {"fault_recovery", "fault_recovery"},
    {"wheelset", "wheelset"},
    {"persist", "persist"},
};

/// Whether a column name is a timing cell --compare diffs: the per-draw
/// nanosecond columns of the serial-shaped sections, the absolute
/// microsecond columns of the fault_recovery / persist sections, or the
/// per-record append columns of the persist log rows.  (MB/s throughput
/// columns are deliberately NOT diffed — higher is better there, and the
/// matching _us cell already carries the regression signal.)
bool is_timing_column(const std::string& column) {
  if (column.find("_ns_per_draw") != std::string::npos) return true;
  if (column.size() >= 14 &&
      column.compare(column.size() - 14, 14, "_ns_per_record") == 0) {
    return true;
  }
  return column.size() >= 3 &&
         column.compare(column.size() - 3, 3, "_us") == 0;
}

bool known_section(const std::string& name) {
  if (name == "invariants") return true;
  for (const auto& [flag, key] : kTimingSections) {
    if (name == flag) return true;
    static_cast<void>(key);
  }
  return false;
}

/// Parses --sections=a,b,c (empty string -> empty list = default mode).
std::vector<std::string> parse_sections(const std::string& spec) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream in(spec);
  while (std::getline(in, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

/// The machine-readable regression diff: invariant-block equality (always
/// fatal on true -> false) + matching timing cells per section (fatal
/// beyond --max-regression under --timing=enforce).  Exit codes: 0 clean, 1
/// regression, 2 unusable input.
int run_compare(const lrb::CliArgs& args) {
  const std::string old_path = args.get_string("compare", "");
  if (old_path.empty() || args.positionals().empty()) {
    std::fprintf(stderr,
                 "usage: bench_json --compare=old.json new.json "
                 "[--max-regression=0.10] [--timing=enforce|report] "
                 "[--sections=invariants,serial,obs_overhead,"
                 "fault_recovery,wheelset,persist]\n");
    return 2;
  }
  const std::string new_path = args.positionals().front();
  // A NaN tolerance would make every "slower than 1 + tolerance" test false
  // and turn the timing gate off, so only a finite value >= 0 is usable.
  const std::string tolerance_text = args.get_string("max-regression", "0.10");
  double tolerance = 0.0;
  try {
    tolerance = lrb::CliArgs::parse_double(tolerance_text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_json: --max-regression: %s\n", e.what());
    return 2;
  }
  if (tolerance < 0.0) {
    std::fprintf(stderr,
                 "bench_json: --max-regression must not be negative (got '%s')\n",
                 tolerance_text.c_str());
    return 2;
  }
  const std::string timing_mode = args.get_string("timing", "enforce");
  if (timing_mode != "enforce" && timing_mode != "report") {
    std::fprintf(stderr, "bench_json: --timing must be enforce|report\n");
    return 2;
  }
  // Default mode (no --sections) diffs every known section present in both
  // artifacts and skips absent ones with a note — a v5 run stays comparable
  // against a pre-obs_overhead baseline.  An explicitly requested section
  // that is missing is an error: CI asking for the obs tax must not pass
  // because the artifact silently lacked the rows.
  const std::vector<std::string> selected =
      parse_sections(args.get_string("sections", ""));
  const bool explicit_sections = !selected.empty();
  for (const std::string& name : selected) {
    if (!known_section(name)) {
      std::fprintf(stderr,
                   "bench_json: unknown section %s (invariants, serial, "
                   "obs_overhead, fault_recovery, wheelset, persist)\n",
                   name.c_str());
      return 2;
    }
  }
  const auto section_selected = [&](const std::string& name) {
    if (!explicit_sections) return true;
    return std::find(selected.begin(), selected.end(), name) != selected.end();
  };

  lrb::tools::JsonValue old_doc, new_doc;
  try {
    old_doc = lrb::tools::parse_json(read_file_or_die(old_path));
    new_doc = lrb::tools::parse_json(read_file_or_die(new_path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_json: %s\n", e.what());
    return 2;
  }
  std::printf("compare: old=%s (%s) new=%s (%s)\n", old_path.c_str(),
              old_doc.at("schema").as_string().c_str(), new_path.c_str(),
              new_doc.at("schema").as_string().c_str());

  // --- Invariant block: every invariant the old artifact holds as true
  // must still be true (keys the new run does not compute — e.g. the
  // timing-based ones under --quick — are not compared).
  int invariant_regressions = 0;
  if (section_selected("invariants")) {
    int invariants_held = 0;
    const lrb::tools::JsonValue& old_inv = old_doc.at("invariants");
    const lrb::tools::JsonValue& new_inv = new_doc.at("invariants");
    if (!old_inv.is_object() || !new_inv.is_object()) {
      std::fprintf(stderr, "bench_json: missing invariants block\n");
      return 2;
    }
    for (const auto& [key, old_value] : *old_inv.object) {
      if (!old_value.is_bool() || !old_value.boolean) continue;
      if (!new_inv.has(key)) continue;
      if (new_inv.at(key).as_bool(false)) {
        ++invariants_held;
      } else {
        ++invariant_regressions;
        std::printf("REGRESSED invariant %s: true -> false\n", key.c_str());
      }
    }
    std::printf("invariants: %d held, %d regressed\n", invariants_held,
                invariant_regressions);
  }

  // --- Timing cells: rows matched by key within each selected section;
  // every *_ns_per_draw / *_us column present in both rows is compared as
  // new/old.
  int timing_cells = 0;
  int timing_regressions = 0;
  double worst_ratio = 0.0;
  for (const auto& [flag, array_key] : kTimingSections) {
    if (!section_selected(flag)) continue;
    const bool in_old = old_doc.has(array_key);
    const bool in_new = new_doc.has(array_key);
    if (!in_old || !in_new) {
      if (explicit_sections) {
        std::fprintf(stderr, "bench_json: section %s missing from %s\n",
                     flag.c_str(), in_old ? new_path.c_str() : old_path.c_str());
        return 2;
      }
      std::printf("section %s absent from %s artifact; skipped\n", flag.c_str(),
                  in_old ? "new" : "old");
      continue;
    }
    for (const lrb::tools::JsonValue& old_row :
         old_doc.at(array_key).items()) {
      const std::string key = serial_row_key(old_row);
      for (const lrb::tools::JsonValue& new_row :
           new_doc.at(array_key).items()) {
        if (serial_row_key(new_row) != key) continue;
        for (const auto& [column, old_cell] : *old_row.object) {
          if (!old_cell.is_number() || old_cell.number <= 0.0) continue;
          if (!is_timing_column(column)) continue;
          if (!new_row.has(column) || !new_row.at(column).is_number()) continue;
          const double ratio = new_row.at(column).number / old_cell.number;
          ++timing_cells;
          worst_ratio = std::max(worst_ratio, ratio);
          const bool regressed = ratio > 1.0 + tolerance;
          if (regressed || ratio < 1.0 / (1.0 + tolerance)) {
            std::printf("%s %s %s %s: %.1f -> %.1f (ratio %.3f)\n",
                        regressed ? "REGRESSED" : "improved", flag.c_str(),
                        key.c_str(), column.c_str(), old_cell.number,
                        new_row.at(column).number, ratio);
          }
          if (regressed) ++timing_regressions;
        }
      }
    }
  }
  std::printf("timing: %d cells compared, %d beyond %.0f%% (worst ratio "
              "%.3f, mode=%s)\n",
              timing_cells, timing_regressions, tolerance * 100.0, worst_ratio,
              timing_mode.c_str());

  if (invariant_regressions > 0) {
    std::fprintf(stderr, "bench_json: invariant regression\n");
    return 1;
  }
  if (timing_mode == "enforce" && timing_regressions > 0) {
    std::fprintf(stderr, "bench_json: timing regression beyond %.0f%%\n",
                 tolerance * 100.0);
    return 1;
  }
  std::printf("compare ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const lrb::CliArgs args(argc, argv);
  if (args.has("compare")) return run_compare(args);
  if (args.get_bool("obs-overhead", false)) return run_obs_overhead(args);

  const bool quick = args.get_bool("quick", false);
  const int reps = static_cast<int>(args.get_u64("reps", quick ? 1 : 3));
  const std::string out_path =
      args.get_string("out", "BENCH_selection.json", "LRB_BENCH_OUT");

  const std::vector<std::size_t> ns =
      quick ? std::vector<std::size_t>{1'000, 10'000}
            : std::vector<std::size_t>{10'000, 1'000'000};
  const std::vector<std::size_t> ms = quick ? std::vector<std::size_t>{4, 16}
                                            : std::vector<std::size_t>{16, 128, 1024};
  const std::size_t p_max = quick ? 64 : 1024;
  const std::vector<std::size_t> batches =
      quick ? std::vector<std::size_t>{1, 8}
            : std::vector<std::size_t>{1, 16, 256};
  const std::size_t dist_n = quick ? 2'000 : 100'000;

  bool speedup_target_met = true;
  bool simd_speedup_target_met = true;
  bool philox_cost_reduced_enough = true;
  bool batched_cheaper_everywhere = true;
  bool rounds_exact_everywhere = true;
  bool det_ledger_parity_everywhere = true;
  bool det_p_invariant_everywhere = true;
  bool fault_recovery_bit_exact_everywhere = true;
  bool wheelset_bit_exact_everywhere = true;
  bool restore_bit_exact_everywhere = true;
  bool wheelset_speedup_target_met = true;
  double wheelset_small_n_speedup =
      std::numeric_limits<double>::infinity();
  double headline_speedup = 0.0;
  double headline_simd_speedup = 0.0;
  double headline_philox_cost = 0.0;
  double headline_philox_cost_scalar = 0.0;

  // Every sweep below runs on the default backend; naming it in the
  // artifact keeps future MPI-sourced benches distinguishable.
  const std::string backend(lrb::dist::simulated_backend().name());
  // The SIMD engine's resolved target — the "best" half of every A/B column
  // below (LRB_SIMD pins it; forced-scalar is always the other half).  When
  // the resolved target IS scalar (no vector hardware, or LRB_SIMD=scalar),
  // the A/B columns are ~1.0 by construction and the simd_* acceptance
  // targets are not meaningful — they are neither emitted nor enforced.
  const std::string simd_target(lrb::simd::target_name());
  const bool simd_vector_active =
      lrb::simd::active_target() != lrb::simd::Target::kScalar;

  Json json;
  json.begin_object();
  json.field("schema", "lrb-bench-selection/v8");
  json.field("generated_by", "tools/bench_json");
  json.field("backend", backend);
  json.begin_object("simd");
  json.field("target", simd_target);
  json.begin_array("available");
  for (lrb::simd::Target t :
       {lrb::simd::Target::kScalar, lrb::simd::Target::kAvx2,
        lrb::simd::Target::kAvx512}) {
    if (const lrb::simd::Ops* ops = lrb::simd::ops_for(t)) {
      json.begin_object();
      json.field("name", ops->name);
      json.end_object();
    }
  }
  json.end_array();
  json.end_object();
  // Build stamp, not an invariant: an OFF artifact must stay comparable
  // against an ON one (that diff IS the overhead measurement).
  json.begin_object("obs");
  json.field("compiled", kObsCompiled);
  json.end_object();
  json.begin_object("config");
  json.field("quick", quick);
  json.field("reps", static_cast<std::uint64_t>(reps));
  json.field("dist_n", dist_n);
  json.end_object();

  // -------------------------------------------------------------- serial --
  std::printf("serial draw_many sweep (reps=%d, simd=%s)...\n", reps,
              simd_target.c_str());
  struct CrossoverRow {
    std::uint64_t n = 0;
    const char* density = "";
    std::uint64_t k = 0;
    double m_star = 0.0;
    double implied_factor = 0.0;
  };
  std::vector<CrossoverRow> crossover_rows;
  json.begin_array("serial_draw_many");
  for (std::size_t n : ns) {
    for (bool dense : {true, false}) {
      const std::vector<double> fitness = make_fitness(n, dense);
      // The serial and deterministic baselines are O(n)/O(k) per draw with
      // no per-batch amortization beyond the build, so they are timed over a
      // capped draw count and reported per draw — and since that cap, not m,
      // fixes the measurement, each distinct cap is timed once per fitness
      // shape rather than redone for every m.
      struct Baseline {
        double serial_ns;
        double det_ns;
        double det_scalar_ns;
      };
      std::vector<std::pair<std::size_t, Baseline>> baseline;
      // Totals for the crossover fit: t(m) = build + m * per_draw.
      std::vector<std::pair<std::size_t, std::pair<double, double>>> totals;
      for (std::size_t m : ms) {
        const std::size_t serial_timed = std::min<std::size_t>(m, quick ? 4 : 32);
        auto cached = std::find_if(baseline.begin(), baseline.end(),
                                   [&](const auto& e) { return e.first == serial_timed; });
        if (cached == baseline.end()) {
          cached = baseline.insert(
              baseline.end(),
              {serial_timed,
               {time_serial_loop(fitness, serial_timed, reps),
                time_deterministic(fitness, serial_timed, reps),
                timed_on_scalar([&] {
                  return time_deterministic(fitness, serial_timed, reps);
                })}});
        }
        const double serial_ns = cached->second.serial_ns;
        const double many_ns = time_draw_many(fitness, m, reps);
        const double many_scalar_ns = timed_on_scalar(
            [&] { return time_draw_many(fitness, m, reps); });
        const double alias_ns = time_alias(fitness, m, reps);
        totals.push_back({m, {many_ns * static_cast<double>(m),
                              alias_ns * static_cast<double>(m)}});
        // The deterministic column: O(k) Philox blocks per draw, capped like
        // the serial baseline.  philox_cost_vs_draw_many is the price of the
        // P-invariant replay contract relative to the stream hot path; the
        // simd_speedup columns are forced-scalar over best-target — what the
        // vector kernels bought on this machine.
        const double det_ns = cached->second.det_ns;
        const double det_scalar_ns = cached->second.det_scalar_ns;
        const double speedup = serial_ns / many_ns;
        const double philox_cost = det_ns / many_ns;
        const double philox_cost_scalar = det_scalar_ns / many_scalar_ns;
        const double simd_speedup_many = many_scalar_ns / many_ns;
        const double simd_speedup_det = det_scalar_ns / det_ns;

        json.begin_object();
        json.field("n", n);
        json.field("density", dense ? "dense" : "sparse_10pct");
        json.field("m", m);
        json.field("simd_target", simd_target);
        json.field("serial_draws_timed", serial_timed);
        json.field("serial_ns_per_draw", serial_ns);
        json.field("draw_many_ns_per_draw", many_ns);
        json.field("draw_many_scalar_ns_per_draw", many_scalar_ns);
        json.field("alias_ns_per_draw", alias_ns);
        json.field("deterministic_draws_timed", serial_timed);
        json.field("deterministic_ns_per_draw", det_ns);
        json.field("deterministic_scalar_ns_per_draw", det_scalar_ns);
        json.field("philox_cost_vs_draw_many", philox_cost);
        json.field("philox_cost_scalar_dispatch", philox_cost_scalar);
        json.field("simd_speedup_draw_many", simd_speedup_many);
        json.field("simd_speedup_deterministic", simd_speedup_det);
        json.field("draw_many_speedup_vs_serial", speedup);
        json.field("auto_strategy_picks",
                   lrb::core::resolve_batch_strategy(fitness, m) ==
                           lrb::core::BatchStrategy::kBidding
                       ? "bidding"
                       : "alias");
        json.end_object();

        std::printf("  n=%-8zu %-12s m=%-5zu serial=%9.1f ns/draw  "
                    "draw_many=%9.1f (scalar %9.1f) ns/draw  alias=%8.1f "
                    "ns/draw  deterministic=%9.1f (scalar %9.1f) ns/draw  "
                    "speedup=%.2fx  simd=%.2fx/%.2fx  philox_cost=%.2fx\n",
                    n, dense ? "dense" : "sparse", m, serial_ns, many_ns,
                    many_scalar_ns, alias_ns, det_ns, det_scalar_ns, speedup,
                    simd_speedup_many, simd_speedup_det, philox_cost);

        if (!quick && n == 1'000'000 && dense && m == 1024) {
          headline_speedup = speedup;
          headline_simd_speedup = simd_speedup_many;
          headline_philox_cost = philox_cost;
          headline_philox_cost_scalar = philox_cost_scalar;
          if (speedup < 2.0) speedup_target_met = false;
          if (simd_vector_active) {
            if (simd_speedup_many < 1.5) simd_speedup_target_met = false;
            if (philox_cost > 0.75 * philox_cost_scalar) {
              philox_cost_reduced_enough = false;
            }
          }
        }
      }
      // Crossover fit from the first/last timed m: per-draw slope and build
      // intercept for bidding and alias, solved for the equal-total m*.
      if (totals.size() >= 2) {
        const auto& [m1, t1] = totals.front();
        const auto& [m2, t2] = totals.back();
        const double dm = static_cast<double>(m2 - m1);
        const double c_bid = (t2.first - t1.first) / dm;
        const double b_bid = t1.first - static_cast<double>(m1) * c_bid;
        const double c_alias = (t2.second - t1.second) / dm;
        const double b_alias = t1.second - static_cast<double>(m1) * c_alias;
        const std::size_t k = lrb::count_nonzero(fitness);
        CrossoverRow row;
        row.n = n;
        row.density = dense ? "dense" : "sparse_10pct";
        row.k = k;
        row.m_star = (c_bid > c_alias)
                         ? std::max(0.0, (b_alias - b_bid) / (c_bid - c_alias))
                         : std::numeric_limits<double>::infinity();
        row.implied_factor =
            (std::isfinite(row.m_star) && row.m_star > 0.0 && k > 0)
                ? static_cast<double>(n) /
                      (row.m_star * static_cast<double>(k))
                : 0.0;
        crossover_rows.push_back(row);
      }
    }
  }
  json.end_array();

  // Small-n crossover rows: the regime the WheelSet exists for, and the data
  // core/batch.hpp's two-regime alias_crossover_for() is fitted from.  Only
  // the bidding/alias totals are needed for the fit, so these rows skip the
  // serial/deterministic baselines the big sweep carries.
  if (!quick) {
    for (std::size_t n : {std::size_t{256}, std::size_t{1'024},
                          std::size_t{4'096}}) {
      const std::vector<double> fitness = make_fitness(n, true);
      const std::size_t m1 = 16;
      const std::size_t m2 = 1'024;
      const double t_bid_1 =
          time_draw_many(fitness, m1, reps) * static_cast<double>(m1);
      const double t_bid_2 =
          time_draw_many(fitness, m2, reps) * static_cast<double>(m2);
      const double t_alias_1 =
          time_alias(fitness, m1, reps) * static_cast<double>(m1);
      const double t_alias_2 =
          time_alias(fitness, m2, reps) * static_cast<double>(m2);
      const double dm = static_cast<double>(m2 - m1);
      const double c_bid = (t_bid_2 - t_bid_1) / dm;
      const double b_bid = t_bid_1 - static_cast<double>(m1) * c_bid;
      const double c_alias = (t_alias_2 - t_alias_1) / dm;
      const double b_alias = t_alias_1 - static_cast<double>(m1) * c_alias;
      const std::size_t k = lrb::count_nonzero(fitness);
      CrossoverRow row;
      row.n = n;
      row.density = "dense";
      row.k = k;
      row.m_star = (c_bid > c_alias)
                       ? std::max(0.0, (b_alias - b_bid) / (c_bid - c_alias))
                       : std::numeric_limits<double>::infinity();
      row.implied_factor =
          (std::isfinite(row.m_star) && row.m_star > 0.0 && k > 0)
              ? static_cast<double>(n) / (row.m_star * static_cast<double>(k))
              : 0.0;
      crossover_rows.push_back(row);
    }
  }

  // The measured break-even the kAuto heuristic is calibrated from: bidding
  // wins while m * k < n / alias_crossover_for(n), so the implied factor
  // column is directly comparable to core/batch.hpp's two-regime table.
  json.begin_array("crossover");
  for (const CrossoverRow& row : crossover_rows) {
    json.begin_object();
    json.field("n", row.n);
    json.field("density", row.density);
    json.field("k", row.k);
    json.field("measured_break_even_m", row.m_star);
    json.field("implied_alias_crossover_factor", row.implied_factor);
    json.field("configured_alias_crossover",
               lrb::core::alias_crossover_for(row.n));
    json.end_object();
    std::printf("  crossover n=%-8llu %-12s k=%-8llu m*=%.0f implied "
                "factor=%.3f (configured %.2f)\n",
                static_cast<unsigned long long>(row.n), row.density,
                static_cast<unsigned long long>(row.k), row.m_star,
                row.implied_factor, lrb::core::alias_crossover_for(row.n));
  }
  json.end_array();

  // ------------------------------------------------------- obs overhead --
  emit_obs_overhead(json, quick, reps);

  // --------------------------------------------------------- distributed --
  std::printf("distributed batch sweep (n=%zu, P=2..%zu)...\n", dist_n, p_max);
  const std::vector<double> dist_fitness = make_fitness(dist_n, false);
  json.begin_array("distributed_batch");
  for (std::size_t p = 2; p <= p_max; p *= 2) {
    const lrb::dist::ShardedFitness shards(dist_fitness, p);
    const auto pfx = lrb::dist::distributed_prefix_sum(shards, 7);
    const std::uint64_t lg = lrb::ceil_log2(p);
    for (std::size_t b : batches) {
      const auto batch = lrb::dist::distributed_bidding_batch(shards, b, 7);
      const auto det =
          lrb::dist::distributed_bidding_deterministic_batch(shards, b, 7);
      const bool rounds_exact = batch.comm.rounds == lg;
      const bool cheaper =
          batch.comm.rounds < b * pfx.comm.rounds &&
          batch.comm.messages < b * pfx.comm.messages &&
          batch.comm.words < b * pfx.comm.words &&
          batch.comm.critical_path_words < b * pfx.comm.critical_path_words;
      // The deterministic batch rides the identical collective: its ledger
      // must EQUAL the stream batch's on every axis, at every (P, B).
      const bool det_parity = det.comm == batch.comm;
      rounds_exact_everywhere = rounds_exact_everywhere && rounds_exact;
      batched_cheaper_everywhere = batched_cheaper_everywhere && cheaper;
      det_ledger_parity_everywhere = det_ledger_parity_everywhere && det_parity;

      json.begin_object();
      json.field("p", p);
      json.field("batch", b);
      json.field("rounds", batch.comm.rounds);
      json.field("rounds_per_draw",
                 static_cast<double>(batch.comm.rounds) / static_cast<double>(b));
      json.field("messages", batch.comm.messages);
      json.field("words", batch.comm.words);
      json.field("critical_path_words", batch.comm.critical_path_words);
      json.field("prefix_rounds_times_b", b * pfx.comm.rounds);
      json.field("prefix_messages_times_b", b * pfx.comm.messages);
      json.field("prefix_words_times_b", b * pfx.comm.words);
      json.field("prefix_critical_path_words_times_b",
                 b * pfx.comm.critical_path_words);
      json.field("det_rounds", det.comm.rounds);
      json.field("det_messages", det.comm.messages);
      json.field("det_words", det.comm.words);
      json.field("det_critical_path_words", det.comm.critical_path_words);
      json.field("rounds_equal_ceil_log2_p", rounds_exact);
      json.field("cheaper_than_b_prefix_all_axes", cheaper);
      json.field("deterministic_ledger_equal_stream", det_parity);
      json.end_object();
    }
  }
  json.end_array();

  // -------------------------------------------------- deterministic parity --
  // The P-invariance contract, executed end to end: the same (seed, draw id)
  // must crown the same winner at every rank count, and that winner is the
  // serial core::DeterministicBidder's.  Exact, cheap, enforced in --quick
  // too — this is the parity suite of the bench-smoke CI job, and since the
  // kernels are SIMD-dispatched it is also a whole-pipeline proof on the
  // resolved target.
  {
    const std::size_t parity_n = quick ? 500 : 10'000;
    const std::size_t parity_draws = quick ? 8 : 64;
    constexpr std::uint64_t kParitySeed = 0xc0ffee;
    const std::vector<double> parity_fitness = make_fitness(parity_n, false);
    std::printf("deterministic parity sweep (n=%zu, %zu draws/P, simd=%s)...\n",
                parity_n, parity_draws, simd_target.c_str());

    lrb::core::DeterministicBidder serial(kParitySeed);
    std::vector<std::size_t> expected;
    for (std::size_t t = 0; t < parity_draws; ++t) {
      expected.push_back(serial.select(parity_fitness));
    }

    json.begin_array("deterministic_parity");
    for (std::size_t p : {1u, 2u, 3u, 7u, 8u, 64u, 1024u}) {
      const lrb::dist::ShardedFitness shards(parity_fitness, p);
      const auto det = lrb::dist::distributed_bidding_deterministic_batch(
          shards, parity_draws, kParitySeed);
      bool identical = det.indices.size() == expected.size();
      for (std::size_t t = 0; identical && t < parity_draws; ++t) {
        identical = det.indices[t] == expected[t];
      }
      det_p_invariant_everywhere = det_p_invariant_everywhere && identical;
      json.begin_object();
      json.field("p", static_cast<std::uint64_t>(p));
      json.field("draws", static_cast<std::uint64_t>(parity_draws));
      json.field("backend", backend);
      json.field("simd_target", simd_target);
      json.field("bit_identical_to_serial", identical);
      json.end_object();
    }
    json.end_array();
  }

  // ------------------------------------------------------ fault recovery --
  // The recovery story, timed: at each benched P a FaultInjectingBackend
  // kills one rank mid-stream, select_with_recovery reshards onto P-1 and
  // resumes from the two-integer cursor, and the row prices the event —
  // reshard wall time alone (the pure data-motion half, construction kept
  // outside the timed region), the driver's own recovery-to-first-draw
  // stamp, and the O(moved) word bill.  Bit-exactness of the resumed
  // sequence against the serial DeterministicBidder is an invariant,
  // enforced in --quick too.
  {
    const std::size_t fr_draws = quick ? 16 : 32;
    const std::size_t fail_draw = fr_draws / 2;
    constexpr std::uint64_t kFaultBenchSeed = 0xfa177;
    std::printf("fault recovery sweep (n=%zu, %zu draws, kill@%zu, reps=%d)"
                "...\n",
                dist_n, fr_draws, fail_draw, reps);

    lrb::core::DeterministicBidder serial(kFaultBenchSeed);
    std::vector<std::size_t> expected;
    for (std::size_t t = 0; t < fr_draws; ++t) {
      expected.push_back(serial.select(dist_fitness));
    }

    json.begin_array("fault_recovery");
    for (const std::size_t p : {std::size_t{2}, std::size_t{4},
                                std::size_t{8}}) {
      const std::size_t victim = p / 2;
      const std::string spec = "kill@" + std::to_string(fail_draw) +
                               ":rank=" + std::to_string(victim);

      // The recovery latency is the driver's steady-clock stamp on the
      // RecoveryEvent; best-of-reps over fresh faulted runs quiets the cell.
      std::uint64_t best_recovery_ns =
          std::numeric_limits<std::uint64_t>::max();
      std::uint64_t moved_words = 0;
      bool bit_exact = true;
      for (int rep = 0; rep < reps; ++rep) {
        auto injector =
            std::make_shared<const lrb::fault::FaultInjectingBackend>(
                nullptr, lrb::fault::FaultSchedule::parse(spec));
        lrb::dist::ShardedFitness shards(dist_fitness, p, injector);
        lrb::dist::DeterministicDistributedBidder cursor(kFaultBenchSeed);
        const lrb::fault::RecoveryRun run =
            lrb::fault::select_with_recovery(shards, cursor, fr_draws);
        bit_exact = bit_exact && run.indices == expected &&
                    run.recoveries.size() == 1;
        if (!run.recoveries.empty()) {
          best_recovery_ns = std::min(
              best_recovery_ns, run.recoveries[0].recovery_to_first_draw_ns);
          moved_words = run.recoveries[0].reshard_comm.words;
        }
      }
      fault_recovery_bit_exact_everywhere =
          fault_recovery_bit_exact_everywhere && bit_exact;

      double best_reshard_s = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < reps; ++rep) {
        lrb::dist::ShardedFitness shards(dist_fitness, p);
        best_reshard_s = std::min(
            best_reshard_s,
            lrb::time_best_of(1, [&] { (void)shards.reshard(p - 1); }));
      }

      const double reshard_us = best_reshard_s * 1e6;
      const double recovery_us =
          static_cast<double>(best_recovery_ns) / 1e3;
      json.begin_object();
      json.field("p", static_cast<std::uint64_t>(p));
      json.field("n", static_cast<std::uint64_t>(dist_n));
      json.field("density", "sparse_10pct");
      json.field("draws", static_cast<std::uint64_t>(fr_draws));
      json.field("fail_draw", static_cast<std::uint64_t>(fail_draw));
      json.field("failed_rank", static_cast<std::uint64_t>(victim));
      json.field("reshard_us", reshard_us);
      json.field("recovery_to_first_draw_us", recovery_us);
      json.field("moved_words", moved_words);
      json.field("bit_exact_after_recovery", bit_exact);
      json.end_object();
      std::printf("  p=%-4zu kill rank %-4zu reshard=%9.1f us  "
                  "recovery_to_first_draw=%9.1f us  moved=%llu words  "
                  "bit_exact=%s\n",
                  p, victim, reshard_us, recovery_us,
                  static_cast<unsigned long long>(moved_words),
                  bit_exact ? "true" : "false");
    }
    json.end_array();
  }

  // ------------------------------------------------------------ wheelset --
  // The multi-tenant arena vs the per-wheel call loop: K small wheels, one
  // batched cross-wheel pass against a loop of batch_select_deterministic()
  // calls at the same seeds.  Bit-exactness of the batched pass against the
  // per-wheel serial reference is checked at every shape and enforced in
  // --quick too; the >= 3x speedup target is taken as the MINIMUM over the
  // n=8, B=1 rows (K from 1e4 to 1e6 — the regime the arena exists for) and
  // enforced in full mode on vector dispatch.
  {
    struct WheelShape {
      std::size_t n;
      std::size_t wheels;
      std::size_t b;
    };
    const std::vector<WheelShape> wheel_shapes =
        quick ? std::vector<WheelShape>{{8, 500, 1}, {64, 100, 2}}
              : std::vector<WheelShape>{{8, 10'000, 1},
                                        {8, 100'000, 1},
                                        {8, 1'000'000, 1},
                                        {8, 10'000, 8},
                                        {64, 10'000, 1},
                                        {64, 100'000, 1},
                                        {512, 10'000, 1},
                                        {4'096, 10'000, 1}};
    std::printf("wheelset sweep (reps=%d, simd=%s)...\n", reps,
                simd_target.c_str());
    json.begin_array("wheelset");
    for (const WheelShape& shape : wheel_shapes) {
      const std::size_t total = shape.wheels * shape.b;
      // Per-wheel dense fitness, phase-shifted so tenants don't alias.
      std::vector<std::vector<double>> tenants;
      tenants.reserve(shape.wheels);
      for (std::size_t w = 0; w < shape.wheels; ++w) {
        std::vector<double> f(shape.n);
        for (std::size_t i = 0; i < shape.n; ++i) {
          f[i] = 1.0 + static_cast<double>((i * 13 + w * 7) % 100);
        }
        tenants.push_back(std::move(f));
      }
      lrb::core::WheelSet set(1);
      std::vector<lrb::core::WheelSet::DrawRequest> requests;
      requests.reserve(shape.wheels);
      for (std::size_t w = 0; w < shape.wheels; ++w) {
        (void)set.add_wheel(tenants[w]);
        requests.push_back({w, shape.b});
      }

      // Bit-exactness first, while the cursors are still at zero: the
      // batched pass must reproduce the per-wheel serial reference winner
      // for winner.
      bool exact = true;
      const auto batched = set.draw_batch(requests);
      for (std::size_t w = 0; w < shape.wheels && exact; ++w) {
        const auto reference = lrb::core::batch_select_deterministic(
            tenants[w], shape.b, set.seed(w));
        for (std::size_t d = 0; d < shape.b; ++d) {
          if (batched[w * shape.b + d] != reference[d]) exact = false;
        }
      }
      wheelset_bit_exact_everywhere = wheelset_bit_exact_everywhere && exact;

      std::vector<std::size_t> sink;
      const double loop_s = lrb::time_best_of(reps, [&] {
        sink.clear();
        for (std::size_t w = 0; w < shape.wheels; ++w) {
          const auto part = lrb::core::batch_select_deterministic(
              tenants[w], shape.b, set.seed(w));
          sink.insert(sink.end(), part.begin(), part.end());
        }
      });
      std::vector<std::size_t> arena_out;
      const double arena_s = lrb::time_best_of(reps, [&] {
        arena_out.clear();
        set.draw_batch_into(requests, arena_out);
      });
      g_sink = g_sink ^ sink.back() ^ arena_out.back();
      const double loop_ns = loop_s * 1e9 / static_cast<double>(total);
      const double arena_ns = arena_s * 1e9 / static_cast<double>(total);
      const double speedup = loop_ns / arena_ns;
      if (!quick && shape.n == 8 && shape.b == 1) {
        wheelset_small_n_speedup =
            std::min(wheelset_small_n_speedup, speedup);
        if (speedup < 3.0) wheelset_speedup_target_met = false;
      }

      json.begin_object();
      json.field("n", static_cast<std::uint64_t>(shape.n));
      json.field("density", "dense");
      json.field("wheels", static_cast<std::uint64_t>(shape.wheels));
      json.field("b", static_cast<std::uint64_t>(shape.b));
      json.field("simd_target", simd_target);
      json.field("loop_ns_per_draw", loop_ns);
      json.field("arena_ns_per_draw", arena_ns);
      json.field("wheelset_speedup_vs_loop", speedup);
      json.field("bit_exact_vs_per_wheel_serial", exact);
      json.end_object();
      std::printf("  n=%-5zu wheels=%-8zu b=%-3zu loop=%9.1f ns/draw  "
                  "arena=%9.1f ns/draw  speedup=%.2fx  bit_exact=%s\n",
                  shape.n, shape.wheels, shape.b, loop_ns, arena_ns, speedup,
                  exact ? "true" : "false");
    }
    json.end_array();
  }

  // ------------------------------------------------------------- persist --
  emit_persist(json, quick, reps, restore_bit_exact_everywhere);

  // ---------------------------------------------------------- invariants --
  json.begin_object("invariants");
  if (!quick) {
    json.field("draw_many_speedup_n1e6_m1024_dense", headline_speedup);
    json.field("speedup_target_2x_met", speedup_target_met);
    json.field("philox_cost_n1e6_m1024_dense", headline_philox_cost);
    json.field("philox_cost_scalar_n1e6_m1024_dense",
               headline_philox_cost_scalar);
    // Emitted only when a vector target resolved: on a scalar-only machine
    // the A/B ratio is ~1.0 and "target met" would be noise either way —
    // absent keys are skipped by --compare, never regressions.
    if (simd_vector_active) {
      json.field("simd_speedup_draw_many_n1e6_m1024_dense",
                 headline_simd_speedup);
      json.field("simd_speedup_target_1_5x_met", simd_speedup_target_met);
      json.field("philox_cost_reduced_25pct_vs_scalar",
                 philox_cost_reduced_enough);
    }
  }
  json.field("batch_rounds_equal_ceil_log2_p_everywhere",
             rounds_exact_everywhere);
  json.field("batched_cheaper_than_b_prefix_everywhere",
             batched_cheaper_everywhere);
  json.field("deterministic_ledger_parity_everywhere",
             det_ledger_parity_everywhere);
  json.field("deterministic_p_invariant_everywhere",
             det_p_invariant_everywhere);
  json.field("fault_recovery_bit_exact_everywhere",
             fault_recovery_bit_exact_everywhere);
  json.field("wheelset_bit_exact_everywhere", wheelset_bit_exact_everywhere);
  json.field("restore_bit_exact_everywhere", restore_bit_exact_everywhere);
  if (!quick) {
    json.field("wheelset_speedup_small_n_min", wheelset_small_n_speedup);
    // Same gate as the simd_* targets: on forced-scalar dispatch the keyed
    // Philox tile fill has no lanes to fill and the arena lands near 2.3x —
    // the 3x contract is the vector engine's, so the key is absent (not
    // false) on scalar-only machines and --compare skips it.
    if (simd_vector_active) {
      json.field("wheelset_speedup_3x_small_n_met",
                 wheelset_speedup_target_met);
    }
  }
  json.end_object();
  json.end_object();

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_json: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json.str() << "\n";
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (!rounds_exact_everywhere || !batched_cheaper_everywhere) {
    std::fprintf(stderr, "bench_json: batched ledger invariant VIOLATED\n");
    return 1;
  }
  if (!det_ledger_parity_everywhere) {
    std::fprintf(stderr,
                 "bench_json: deterministic ledger parity VIOLATED (the "
                 "deterministic batch must bill exactly the stream batch)\n");
    return 1;
  }
  if (!det_p_invariant_everywhere) {
    std::fprintf(stderr,
                 "bench_json: deterministic P-invariance VIOLATED (same seed "
                 "must crown the serial winners at every rank count)\n");
    return 1;
  }
  if (!fault_recovery_bit_exact_everywhere) {
    std::fprintf(stderr,
                 "bench_json: fault recovery bit-exactness VIOLATED (a "
                 "recovered run must replay the serial winners exactly)\n");
    return 1;
  }
  if (!wheelset_bit_exact_everywhere) {
    std::fprintf(stderr,
                 "bench_json: wheelset bit-exactness VIOLATED (the batched "
                 "cross-wheel pass must reproduce the per-wheel serial "
                 "reference at every shape)\n");
    return 1;
  }
  if (!restore_bit_exact_everywhere) {
    std::fprintf(stderr,
                 "bench_json: restore bit-exactness VIOLATED (a restored "
                 "snapshot must continue the live winner stream exactly on "
                 "every dispatch target)\n");
    return 1;
  }
  if (!quick && !speedup_target_met) {
    std::fprintf(stderr,
                 "bench_json: draw_many speedup target (>= 2x at n=1e6, "
                 "m=1024 dense) MISSED: %.2fx\n",
                 headline_speedup);
    return 1;
  }
  if (!quick && simd_vector_active && !simd_speedup_target_met) {
    std::fprintf(stderr,
                 "bench_json: SIMD draw_many speedup target (>= 1.5x vs "
                 "forced-scalar at n=1e6, m=1024 dense) MISSED: %.2fx\n",
                 headline_simd_speedup);
    return 1;
  }
  if (!quick && simd_vector_active && !philox_cost_reduced_enough) {
    std::fprintf(stderr,
                 "bench_json: deterministic philox_cost reduction target "
                 "(>= 25%% vs forced-scalar) MISSED: %.2fx vs %.2fx\n",
                 headline_philox_cost, headline_philox_cost_scalar);
    return 1;
  }
  if (!quick && simd_vector_active && !wheelset_speedup_target_met) {
    std::fprintf(stderr,
                 "bench_json: wheelset speedup target (>= 3x vs the "
                 "per-wheel call loop at n=8, K>=1e4, B=1) MISSED: min "
                 "%.2fx\n",
                 wheelset_small_n_speedup);
    return 1;
  }
  return 0;
}
