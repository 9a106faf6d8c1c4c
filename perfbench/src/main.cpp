// lrb_perfbench — the end-to-end benchmark's runner.
//
//   lrb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--ops <n>] [--workdir <dir>] [--trace-out <file>]
//   lrb_perfbench --workload <name> --seed <n> --dump-requests <file>
//                 [--ops <n>]
//
// --trace 0 measures one workload with no instrumentation and reports the
// end-to-end metrics.  --trace 1 is the separate traced run: the workload
// runs untraced, then traced, which gives obs.trace_overhead; then each of
// the other workloads runs traced for a short share of the time, so every
// per-layer metric is reported on its own workload's shape.  Spans go to a
// Chrome-trace JSON file.  --ops runs a fixed number of ops per window
// instead of a timed window (the short mode the tests use).
//
// Human-readable lines come first; the last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "simd/dispatch.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 5;
/// Ops per window of the timing statistics, and the fast share of windows
/// they are read at (see windowed_timing).
constexpr std::size_t kWindowOps = 100;
constexpr double kFastShare = 0.1;
/// Shares of --seconds in a traced run: the workload untraced, the
/// workload traced, and each other workload traced.
constexpr double kUntracedShare = 0.3;
constexpr double kTracedShare = 0.4;
constexpr double kOtherShare = 0.1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t ops = 0;  // > 0: fixed op count per window
  std::string workdir = ".bench_build/perfbench/work";
  std::string trace_out;
  std::string dump;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "lrb_perfbench: %s\n"
               "usage: lrb_perfbench --workload <aco_tsp|tenants|replay_1m|"
               "tenants_durable> --seed <n> --seconds <s> --trace <0|1>\n"
               "       [--ops <n>] [--workdir <dir>] [--trace-out <file>] "
               "[--dump-requests <file>]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + key);
    }
    try {
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (key == "--ops") {
        o.ops = std::stoull(value);
      } else if (key == "--workdir") {
        o.workdir = value;
      } else if (key == "--trace-out") {
        o.trace_out = value;
      } else if (key == "--dump-requests") {
        o.dump = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
      std::end(kWorkloads)) {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (o.trace_out.empty()) {
    o.trace_out = o.workdir + "/trace-" + o.workload + "-seed" +
                  std::to_string(o.seed) + ".json";
  }
  return o;
}

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

/// Linearly interpolated quantile, q in [0, 1] (NaN for no samples).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<std::uint64_t>& sorted, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * sorted.size()));
  return static_cast<double>(sorted[std::max<std::size_t>(rank, 1) - 1]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Where and how the numbers were taken: runs stamped differently are not
/// comparable.
std::string stamp(const Options& o) {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
#if defined(LRB_OBS_ENABLED)
  const char* obs = "on";
#else
  const char* obs = "off";
#endif
  return std::string("{\"simd\":\"") + lrb::simd::target_name() +
         "\",\"cores\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"llc_bytes\":" + std::to_string(std::max(llc, 0L)) +
         ",\"build\":\"" + PERFBENCH_BUILD_TYPE + "\",\"obs\":\"" + obs +
         "\",\"workload\":\"" + o.workload + "\",\"seed\":" +
         std::to_string(o.seed) + ",\"trace\":" + (o.trace ? "1" : "0") + "}";
}

/// One closed-loop window: op i + 1 is issued only after op i returned and
/// was checked.  Op times exclude the checks.
struct Window {
  std::vector<std::uint64_t> op_ns;
  std::vector<std::uint64_t> op_winners;
  std::uint64_t winners = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  [[nodiscard]] double op_seconds() const {
    std::uint64_t sum = 0;
    for (std::uint64_t ns : op_ns) sum += ns;
    return sum / 1e9;
  }
};

Window run_window(Workload& w, double seconds, std::size_t max_ops,
                  Tracer* tracer, std::size_t first_op) {
  Window win;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t i = first_op;; ++i) {
    if (win.attempted > 0 &&
        (max_ops > 0 ? win.attempted >= max_ops : now_ns() >= deadline)) {
      break;
    }
    ++win.attempted;
    try {
      const std::uint64_t t0 = now_ns();
      const OpResult r = tracer ? w.run_traced_op(i, *tracer) : w.run_op(i);
      win.op_ns.push_back(now_ns() - t0);
      win.op_winners.push_back(r.winners);
      win.winners += r.winners;
      win.failed += (r.ok ? 0 : 1) + w.check_op(i);
    } catch (const std::exception& e) {
      if (win.failed < 5) std::fprintf(stderr, "op %zu failed: %s\n", i, e.what());
      ++win.failed;
    }
  }
  return win;
}

/// Per-window rate, p50 and p99, each taken at the fast decile of the
/// windows.
struct Timing {
  double rate = 0.0;    // winners per second of op time
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  std::size_t windows = 0;
};

/// Splits the ops into consecutive windows of kWindowOps (the last one
/// takes the remainder; a shorter run is one window) and reports each
/// statistic at the fast decile of its windows: the 90th percentile of the
/// window rates, the 10th of the window p50s and p99s.  On the shared host
/// a core runs at one speed for a few seconds, then ~1.5x slower for a few
/// seconds, whatever runs on it (pinning does not help), and slower still
/// for a minute at times; a whole-run figure, or even a window median,
/// reads whichever phase a run caught more of.  The fast decile reads the
/// host's fast phase, which nearly every run reaches for a while, and
/// still moves with any change to the code.
Timing windowed_timing(const Window& win) {
  const std::size_t n = win.op_ns.size();
  Timing t;
  t.windows = std::max<std::size_t>(1, n / kWindowOps);
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p99;
  for (std::size_t k = 0; k < t.windows && n > 0; ++k) {
    const std::size_t begin = k * kWindowOps;
    const std::size_t end = k + 1 == t.windows ? n : begin + kWindowOps;
    std::vector<std::uint64_t> ns(win.op_ns.begin() + begin,
                                  win.op_ns.begin() + end);
    std::uint64_t sum = 0;
    std::uint64_t won = 0;
    for (std::size_t i = begin; i < end; ++i) {
      sum += win.op_ns[i];
      won += win.op_winners[i];
    }
    rate.push_back(won / (sum / 1e9));
    std::sort(ns.begin(), ns.end());
    p50.push_back(percentile(ns, 0.50));
    p99.push_back(percentile(ns, 0.99));
  }
  t.rate = quantile(rate, 1.0 - kFastShare);
  t.p50_ns = quantile(p50, kFastShare);
  t.p99_ns = quantile(p99, kFastShare);
  return t;
}

void print_metric(const Metric& m, const std::string& detail = "") {
  std::printf("  %-36s %14.6g %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), detail.c_str());
}

/// Builds, sets up and measures one workload with no instrumentation.
Metrics run_untraced(const Options& o, std::size_t& attempted,
                     std::size_t& failed) {
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();
    std::unique_ptr<Workload> fresh = make_workload(o.workload, o.seed, o.workdir);
    const std::uint64_t t0 = now_ns();
    fresh->setup();
    setup_s.push_back((now_ns() - t0) / 1e9);
    w = std::move(fresh);
  }
  const Window win = run_window(*w, o.seconds, o.ops, nullptr, 0);
  const std::size_t finish_failed = w->finish();
  attempted = win.attempted;
  failed = std::min(win.attempted, win.failed + finish_failed);

  const Timing timing = windowed_timing(win);
  const std::string windows = "fast decile of " +
                              std::to_string(timing.windows) + " windows; " +
                              std::to_string(win.op_ns.size()) + " ops";
  Metrics m;
  m.push_back({"draws_per_s", timing.rate, "1/s"});
  m.push_back({"op_p50_us", timing.p50_ns / 1e3, "us"});
  m.push_back({"op_p99_us", timing.p99_ns / 1e3, "us"});
  m.push_back({"setup_s", median(setup_s), "s"});
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  print_metric(m[0], "(" + windows + ", " + std::to_string(win.winners) +
                         " winners in " + num(win.op_seconds()) + " s of ops)");
  print_metric(m[1], "(" + windows + ")");
  print_metric(m[2], "(" + windows + ")");
  print_metric(m[3], "(median of " + std::to_string(kSetupReps) + ")");
  print_metric(m[4]);
  print_metric({"error_rate", static_cast<double>(failed) / attempted, ""},
               "(" + std::to_string(failed) + " of " +
                   std::to_string(attempted) + " ops)");
  return m;
}

/// The traced run: see the file comment.
Metrics run_traced(const Options& o, std::size_t& attempted,
                   std::size_t& failed) {
  std::vector<std::string_view> order{o.workload};
  for (std::string_view name : kWorkloads) {
    if (name != o.workload) order.push_back(name);
  }
  std::vector<std::unique_ptr<Tracer>> tracers;
  Metrics m;
  for (std::string_view name : order) {
    const bool main_workload = name == o.workload;
    std::unique_ptr<Workload> w = make_workload(name, o.seed, o.workdir);
    w->setup();
    Window plain;
    if (main_workload) {
      plain = run_window(*w, o.seconds * kUntracedShare, o.ops, nullptr, 0);
    }
    auto& tracer = tracers.emplace_back(std::make_unique<Tracer>(std::string(name)));
    ObsDelta obs;
    const Window traced =
        run_window(*w, o.seconds * (main_workload ? kTracedShare : kOtherShare),
                   o.ops, tracer.get(), plain.attempted);
    obs.close();
    const std::size_t finish_failed = w->finish();
    attempted += plain.attempted + traced.attempted;
    failed += std::min(plain.attempted + traced.attempted,
                       plain.failed + traced.failed + finish_failed);
    w->layer_metrics(*tracer, obs, m);
    if (main_workload) {
      const Tracer::Stat op = tracer->stat(std::string(name) + ".op");
      const double traced_rate = traced.winners / (op.total_ns / 1e9);
      const double plain_rate = plain.winners / plain.op_seconds();
      m.push_back({"obs.trace_overhead", traced_rate / plain_rate, "ratio"});
    }
  }
  for (const Metric& metric : m) print_metric(metric);

  std::printf("  self time by span (traced windows):\n");
  for (const auto& t : tracers) {
    for (const auto& [name, s] : t->stats()) {
      std::printf("    %-34s calls %9llu  total %10.3f ms  self %10.3f ms\n",
                  name.c_str(), static_cast<unsigned long long>(s.calls),
                  s.total_ns / 1e6, s.self_ns / 1e6);
    }
  }
  std::vector<const Tracer*> views;
  for (const auto& t : tracers) views.push_back(t.get());
  if (Tracer::write_chrome_trace(o.trace_out, views, stamp(o))) {
    std::printf("  trace: %s (load in ui.perfetto.dev)\n", o.trace_out.c_str());
  } else {
    std::fprintf(stderr, "cannot write trace file %s\n", o.trace_out.c_str());
  }
  return m;
}

int run(const Options& o) {
  std::filesystem::create_directories(o.workdir);
  if (!o.dump.empty()) {
    std::vector<std::uint8_t> bytes;
    make_workload(o.workload, o.seed, o.workdir)
        ->dump_requests(o.ops > 0 ? o.ops : 16, bytes);
    std::ofstream(o.dump, std::ios::binary)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    std::printf("dumped %zu request bytes to %s\n", bytes.size(), o.dump.c_str());
    return 0;
  }

  std::printf("perfbench stamp %s\n", stamp(o).c_str());
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const Metrics metrics = o.trace ? run_traced(o, attempted, failed)
                                  : run_untraced(o, attempted, failed);

  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite; left out\n", m.name.c_str());
      continue;
    }
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lrb_perfbench: %s\n", e.what());
    return 1;
  }
}
