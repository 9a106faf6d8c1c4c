// lrb — command-line roulette wheel selection.
//
// Subcommands (weights come from positional arguments or stdin, one per
// line; `-` forces stdin):
//
//   lrb select   [--draws=1] [--selector=bidding] [--seed=...] w0 w1 ...
//       draw indices with the chosen algorithm; with --histogram prints
//       the empirical frequency table instead of raw indices.
//   lrb sample   --m=K [--seed=...] w0 w1 ...
//       K distinct indices, weighted without replacement.
//   lrb shuffle  [--seed=...] w0 w1 ...
//       full weighted permutation of the positive-weight indices.
//   lrb validate [--draws=100000] [--selector=bidding] [--seed=...] w0 ...
//       chi-square the selector's empirical distribution against F_i.
//   lrb race     [--trials=200] [--seed=...] w0 w1 ...
//       PRAM race round statistics for these weights (Theorem 1 view).
//   lrb dist     [--ranks=4] [--draws=10] [--batch=1] [--seed=...] w0 w1 ...
//       deterministic distributed selection on the simulated machine, with
//       optional chaos: --fault-spec=<spec> injects an explicit fault
//       schedule (e.g. "drop@3:times=2;kill@7:rank=1"), --fault-seed=<u64>
//       generates one deterministically (the canonical spec is echoed to
//       stderr so the run can be replayed via --fault-spec).  Rank failures
//       are survived by elastic resharding; winners are bit-identical to a
//       fault-free run.  The recovery summary prints to stderr; stdout
//       carries only the drawn indices.
//   lrb wheelset [--wheels=K] [--draws=1] [--seed=...] w0 w1 ...
//       multi-tenant arena demo: the weights are split contiguously into K
//       wheels (near-even partition) and every wheel draws --draws times
//       through ONE batched cross-wheel pass (core/wheel_set.hpp).  Prints
//       "wheel winner" pairs; the arena summary goes to stderr.  With
//       --stats the lrb_wheelset_* metric catalog appears in the table.
//   lrb record   --dir=D [--draws=N] [--wheels=K] [--seed=...] w0 w1 ...
//       durable wheelset session via lrb::persist: creates a journal
//       (snapshot + write-ahead draw log) in D, then runs a deterministic
//       step script — draw one winner per step round-robin across K wheels,
//       periodic scripted updates — printing "t wheel winner" per step.
//       --flush=every|batch|off picks the log fsync policy,
//       --checkpoint-every=C commits a fresh snapshot every C steps,
//       --throttle-us=U sleeps between steps (widens the crash window the
//       CI crash job SIGKILLs into).
//   lrb resume   --dir=D [--draws=N] ...
//       restores the journal in D (torn log tails are truncated away),
//       re-prints every committed winner, and continues the SAME script to
//       N steps — stdout is byte-identical to an uninterrupted `lrb
//       record`, which the CI crash job enforces by diffing the two after
//       SIGKILLs at randomized offsets.
//   lrb replay   --dir=D | --snapshot=S --log=L
//       re-executes the logged session from the snapshot and diffs every
//       logged winner against the re-derived one (persist/replay.hpp).
//       Exit 0 when the streams match, 1 on any mismatch — run it under
//       different LRB_SIMD targets to prove an incident replays everywhere.
//   lrb list
//       available selector algorithms.
//
// Global flags (any subcommand):
//   --stats         print the lrb::obs Registry snapshot (counters, gauges,
//                   histograms) as a table after the run
//   --trace=<path>  dump Chrome trace_event JSON of the run's spans to
//                   <path> (same as setting LRB_TRACE=<path>)
// Both are inert — with a warning — when built with -DLRB_OBS=OFF.
//
// Exit status: 0 on success (validate: consistent), 1 on inconsistency,
// 2 on usage errors.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "lrb.hpp"

namespace {

std::vector<double> read_weights(const lrb::CliArgs& args) {
  std::vector<double> weights;
  bool from_stdin = args.positionals().size() <= 1;
  for (std::size_t i = 1; i < args.positionals().size(); ++i) {
    const std::string& tok = args.positionals()[i];
    if (tok == "-") {
      from_stdin = true;
      continue;
    }
    weights.push_back(lrb::CliArgs::parse_double(tok));
  }
  if (from_stdin && weights.empty()) {
    std::string tok;
    while (std::cin >> tok) weights.push_back(lrb::CliArgs::parse_double(tok));
  }
  return weights;
}

int cmd_list() {
  lrb::Table table({"name", "exact", "parallel", "prebuilds", "description"});
  table.set_align(0, lrb::Align::kLeft);
  table.set_align(4, lrb::Align::kLeft);
  for (const auto kind : lrb::core::all_selector_kinds()) {
    const auto& info = lrb::core::selector_info(kind);
    table.add_row({std::string(info.name), info.exact ? "yes" : "NO",
                   info.parallel ? "yes" : "no", info.prebuilds ? "yes" : "no",
                   std::string(info.description)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_select(const lrb::CliArgs& args, const std::vector<double>& weights) {
  const auto kind =
      lrb::core::parse_selector_kind(args.get_string("selector", "bidding"));
  const std::uint64_t draws = args.get_u64("draws", 1);
  auto selector =
      lrb::core::make_selector(kind, weights, args.get_u64("seed", 1));
  if (args.get_bool("histogram", false)) {
    lrb::stats::SelectionHistogram hist(weights.size());
    for (std::uint64_t t = 0; t < draws; ++t) hist.record(selector->select());
    lrb::Table table({"index", "weight", "F_i", "observed"});
    const auto exact = lrb::core::exact_probabilities(weights);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      table.add_row({std::to_string(i), lrb::format_fixed(weights[i], 4),
                     lrb::format_fixed(exact[i], 6),
                     lrb::format_fixed(hist.frequency(i), 6)});
    }
    table.print(std::cout);
  } else {
    for (std::uint64_t t = 0; t < draws; ++t) {
      std::printf("%zu\n", selector->select());
    }
  }
  return 0;
}

int cmd_sample(const lrb::CliArgs& args, const std::vector<double>& weights) {
  const std::size_t m = args.get_u64("m", 1);
  const auto sample = lrb::core::sample_without_replacement(
      weights, m, args.get_u64("seed", 1));
  for (std::size_t i : sample) std::printf("%zu\n", i);
  return 0;
}

int cmd_shuffle(const lrb::CliArgs& args, const std::vector<double>& weights) {
  const auto order =
      lrb::core::weighted_shuffle(weights, args.get_u64("seed", 1));
  for (std::size_t i : order) std::printf("%zu\n", i);
  return 0;
}

int cmd_validate(const lrb::CliArgs& args, const std::vector<double>& weights) {
  const auto kind =
      lrb::core::parse_selector_kind(args.get_string("selector", "bidding"));
  const std::uint64_t draws = args.get_u64("draws", 100000);
  auto selector =
      lrb::core::make_selector(kind, weights, args.get_u64("seed", 1));
  lrb::stats::SelectionHistogram hist(weights.size());
  for (std::uint64_t t = 0; t < draws; ++t) hist.record(selector->select());
  const auto exact = lrb::core::exact_probabilities(weights);
  const auto gof = lrb::stats::chi_square_gof(hist, exact);
  const bool ok = gof.consistent_with_model(1e-4);
  std::printf("selector=%s draws=%llu chi2=%.3f dof=%.0f p=%.6f tv=%.6f -> %s\n",
              std::string(lrb::core::to_string(kind)).c_str(),
              static_cast<unsigned long long>(draws), gof.statistic, gof.dof,
              gof.p_value,
              lrb::stats::total_variation(hist.frequencies(), exact),
              ok ? "CONSISTENT" : "INCONSISTENT");
  return ok ? 0 : 1;
}

int cmd_race(const lrb::CliArgs& args, const std::vector<double>& weights) {
  const std::uint64_t trials = args.get_u64("trials", 200);
  const std::uint64_t seed = args.get_u64("seed", 1);
  lrb::stats::OnlineMoments rounds;
  lrb::stats::SelectionHistogram hist(weights.size());
  for (std::uint64_t t = 0; t < trials; ++t) {
    const auto r =
        lrb::pram::crcw_bidding_selection(weights, seed + 2 * t, seed + 2 * t + 1);
    rounds.add(static_cast<double>(r.rounds));
    hist.record(r.winner);
  }
  const std::size_t k = lrb::count_nonzero(weights);
  std::printf("n=%zu k=%zu trials=%llu\n", weights.size(), k,
              static_cast<unsigned long long>(trials));
  std::printf("race rounds: mean=%.2f sd=%.2f min=%.0f max=%.0f "
              "(Theorem 1 envelope 2*ceil(log2 k) = %.0f)\n",
              rounds.mean(), rounds.stddev(), rounds.min(), rounds.max(),
              k <= 1 ? 1.0 : 2.0 * std::ceil(std::log2(static_cast<double>(k))));
  return 0;
}

int cmd_dist(const lrb::CliArgs& args, const std::vector<double>& weights) {
  const std::size_t ranks = args.get_u64("ranks", 4);
  // The largest P the parity suites and bench_json cover.  Checked before
  // any schedule or shard is built: with P = 1e8 a two-weight run did not
  // finish in 10 s.
  constexpr std::size_t kMaxRanks = 1024;
  if (ranks > kMaxRanks) {
    std::fprintf(stderr, "lrb: dist needs --ranks <= %zu (got --ranks=%zu)\n",
                 kMaxRanks, ranks);
    return 2;
  }
  const std::uint64_t draws = args.get_u64("draws", 10);
  std::size_t batch = args.get_u64("batch", 1);
  if (batch == 0) batch = 1;
  const std::uint64_t seed = args.get_u64("seed", 1);

  // Chaos wiring: an explicit --fault-spec wins; --fault-seed generates a
  // schedule sized to this run's exchange count and echoes its canonical
  // spec so the exact same chaos can be replayed without the seed.
  lrb::fault::FaultSchedule schedule;
  if (args.has("fault-spec")) {
    schedule = lrb::fault::FaultSchedule::parse(args.get_string("fault-spec", ""));
  } else if (args.has("fault-seed")) {
    const std::uint64_t exchanges = (draws + batch - 1) / batch;
    schedule = lrb::fault::FaultSchedule::random(
        args.get_u64("fault-seed", 0), ranks, exchanges == 0 ? 1 : exchanges);
    std::fprintf(stderr, "lrb: fault schedule (replay with --fault-spec): %s\n",
                 schedule.str().c_str());
  }

  std::shared_ptr<const lrb::dist::CommBackend> backend;
  if (!schedule.empty()) {
    backend = lrb::fault::make_fault_injecting_backend(std::move(schedule));
  }
  lrb::dist::ShardedFitness shards(weights, ranks, std::move(backend));
  lrb::dist::DeterministicDistributedBidder cursor(seed);
  const lrb::fault::RecoveryRun run =
      lrb::fault::select_with_recovery(shards, cursor, draws, batch);

  for (std::size_t i : run.indices) std::printf("%zu\n", i);
  for (const lrb::fault::RecoveryEvent& ev : run.recoveries) {
    std::fprintf(stderr,
                 "lrb: recovered from rank %zu failure at draw %llu: "
                 "resharded %zu -> %zu ranks, moved %llu words, "
                 "first post-recovery draw after %.1f us\n",
                 ev.failed_rank, static_cast<unsigned long long>(ev.draw_id),
                 ev.ranks_before, ev.ranks_after,
                 static_cast<unsigned long long>(ev.reshard_comm.words),
                 static_cast<double>(ev.recovery_to_first_draw_ns) / 1000.0);
  }
  std::fprintf(stderr,
               "lrb: dist ranks=%zu->%zu draws=%llu batch=%zu rounds=%llu "
               "words=%llu retries=%llu retried_words=%llu recoveries=%zu\n",
               ranks, shards.ranks(), static_cast<unsigned long long>(draws),
               batch, static_cast<unsigned long long>(run.comm.rounds),
               static_cast<unsigned long long>(run.comm.words),
               static_cast<unsigned long long>(run.comm.retries),
               static_cast<unsigned long long>(run.comm.retried_words),
               run.recoveries.size());
  return 0;
}

int cmd_wheelset(const lrb::CliArgs& args, const std::vector<double>& weights) {
  const std::size_t wheels = args.get_u64("wheels", 4);
  const std::uint64_t draws = args.get_u64("draws", 1);
  if (wheels == 0 || wheels > weights.size()) {
    std::fprintf(stderr,
                 "lrb: wheelset needs 1 <= --wheels <= #weights "
                 "(got --wheels=%zu for %zu weights)\n",
                 wheels, weights.size());
    return 2;
  }
  lrb::core::WheelSet set(args.get_u64("seed", 1));
  // Contiguous near-even partition: the first (items % wheels) wheels take
  // one extra item, so tenant w owns a stable slice of the input.
  const std::size_t base = weights.size() / wheels;
  const std::size_t extra = weights.size() % wheels;
  std::span<const double> rest(weights);
  std::vector<lrb::core::WheelSet::DrawRequest> requests;
  requests.reserve(wheels);
  for (std::size_t w = 0; w < wheels; ++w) {
    const std::size_t n = base + (w < extra ? 1 : 0);
    (void)set.add_wheel(rest.first(n));
    rest = rest.subspan(n);
    requests.push_back({w, draws});
  }
  const auto winners = set.draw_batch(requests);
  std::size_t pos = 0;
  for (std::size_t w = 0; w < wheels; ++w) {
    for (std::uint64_t d = 0; d < draws; ++d) {
      std::printf("%zu %zu\n", w, winners[pos++]);
    }
  }
  std::fprintf(stderr,
               "lrb: wheelset wheels=%zu items=%zu active=%zu draws=%zu "
               "(one batched pass)\n",
               set.wheels(), set.total_items(), set.total_active(),
               winners.size());
  return 0;
}

// --- the durable session script (record / resume) --------------------------
// One deterministic step sequence, a pure function of the step index, shared
// by `record` and `resume`: step t draws one winner from wheel t % K and —
// every 7th step — rewrites one scripted value.  Because resume can re-derive
// the whole script, its continuation is byte-identical to a run that was
// never interrupted, which is exactly what the CI crash job diffs.

bool script_update_due(std::uint64_t t) { return (t + 1) % 7 == 0; }

double script_update_value(std::uint64_t t) {
  return 0.5 + 0.25 * static_cast<double>(t % 13);
}

/// Runs script steps [from, to) against the journal, printing one
/// "t wheel winner" line per step.
void run_script_steps(lrb::persist::WheelJournal& journal, std::uint64_t from,
                      std::uint64_t to, std::uint64_t checkpoint_every,
                      std::uint64_t throttle_us) {
  const std::size_t wheels = journal.wheels().wheels();
  for (std::uint64_t t = from; t < to; ++t) {
    const std::size_t wheel = static_cast<std::size_t>(t % wheels);
    const auto winners = journal.draw(wheel, 1);
    std::printf("%llu %zu %llu\n", static_cast<unsigned long long>(t), wheel,
                static_cast<unsigned long long>(winners[0]));
    std::fflush(stdout);
    if (script_update_due(t)) {
      const std::size_t item =
          static_cast<std::size_t>(t) % journal.wheels().size(wheel);
      journal.update(wheel, item, script_update_value(t));
    }
    if (checkpoint_every > 0 && (t + 1) % checkpoint_every == 0) {
      journal.checkpoint();
    }
    if (throttle_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(throttle_us));
    }
  }
}

lrb::persist::DrawLogConfig parse_flush(const lrb::CliArgs& args) {
  lrb::persist::DrawLogConfig config;
  const std::string policy = args.get_string("flush", "every");
  if (policy == "every") {
    config.policy = lrb::persist::FlushPolicy::kEveryRecord;
  } else if (policy == "batch") {
    config.policy = lrb::persist::FlushPolicy::kBatch;
    config.batch_records = args.get_u64("flush-batch", 64);
  } else if (policy == "off") {
    config.policy = lrb::persist::FlushPolicy::kNone;
  } else {
    throw lrb::InvalidArgumentError(
        "--flush must be every, batch, or off (got \"" + policy + "\")");
  }
  return config;
}

int cmd_record(const lrb::CliArgs& args, const std::vector<double>& weights) {
  const std::string dir = args.get_string("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "lrb: record needs --dir=<journal directory>\n");
    return 2;
  }
  const std::uint64_t draws = args.get_u64("draws", 100);
  const std::size_t wheels = args.get_u64("wheels", 4);
  if (wheels == 0 || wheels > weights.size()) {
    std::fprintf(stderr,
                 "lrb: record needs 1 <= --wheels <= #weights "
                 "(got --wheels=%zu for %zu weights)\n",
                 wheels, weights.size());
    return 2;
  }
  lrb::core::WheelSet set(args.get_u64("seed", 1));
  const std::size_t base = weights.size() / wheels;
  const std::size_t extra = weights.size() % wheels;
  std::span<const double> rest(weights);
  for (std::size_t w = 0; w < wheels; ++w) {
    const std::size_t n = base + (w < extra ? 1 : 0);
    (void)set.add_wheel(rest.first(n));
    rest = rest.subspan(n);
  }
  std::filesystem::create_directories(dir);
  lrb::persist::WheelJournal journal = lrb::persist::WheelJournal::create(
      dir, std::move(set), parse_flush(args));
  run_script_steps(journal, 0, draws, args.get_u64("checkpoint-every", 0),
                   args.get_u64("throttle-us", 0));
  journal.sync();
  std::fprintf(stderr, "lrb: record dir=%s steps=%llu records=%llu\n",
               dir.c_str(), static_cast<unsigned long long>(draws),
               static_cast<unsigned long long>(journal.records()));
  return 0;
}

int cmd_resume(const lrb::CliArgs& args) {
  const std::string dir = args.get_string("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "lrb: resume needs --dir=<journal directory>\n");
    return 2;
  }
  const std::uint64_t draws = args.get_u64("draws", 100);
  lrb::persist::ResumedWheelJournal resumed =
      lrb::persist::WheelJournal::resume(dir, parse_flush(args));
  lrb::persist::WheelJournal& journal = resumed.journal;
  const std::size_t wheels = journal.wheels().wheels();
  if (resumed.torn_tail) {
    std::fprintf(stderr,
                 "lrb: resume dropped a torn log tail of %llu bytes "
                 "(mid-append crash; the frame was never acknowledged)\n",
                 static_cast<unsigned long long>(resumed.dropped_bytes));
  }

  // Re-announce the committed stream: winner i belongs to script step i.
  const std::uint64_t done = resumed.winners.size();
  for (std::uint64_t t = 0; t < done; ++t) {
    std::printf("%llu %zu %llu\n", static_cast<unsigned long long>(t),
                static_cast<std::size_t>(t % wheels),
                static_cast<unsigned long long>(resumed.winners[t]));
  }
  std::fflush(stdout);

  // A crash (or an unsynced-tail loss) between a step's draw record and its
  // update record leaves the draw committed but the scripted update
  // missing.  The script is deterministic, so compare the logged update
  // count against what the script owes for `done` completed steps and
  // re-apply the one that can be missing (the log is strictly ordered, so
  // at most the last due step's update was torn off).
  std::uint64_t logged_updates = 0;
  for (const lrb::persist::Record& r : lrb::persist::read_draw_log(
           lrb::persist::WheelJournal::log_path(dir)).records) {
    logged_updates += std::holds_alternative<lrb::persist::WheelUpdateRecord>(r);
  }
  std::uint64_t owed_updates = 0;
  for (std::uint64_t t = 0; t < done; ++t) {
    owed_updates += script_update_due(t);
  }
  if (logged_updates < owed_updates) {
    std::uint64_t t = done;  // largest due step < done
    while (t > 0 && !script_update_due(--t)) {
    }
    const std::size_t wheel = static_cast<std::size_t>(t % wheels);
    const std::size_t item =
        static_cast<std::size_t>(t) % journal.wheels().size(wheel);
    journal.update(wheel, item, script_update_value(t));
    std::fprintf(stderr,
                 "lrb: resume re-applied the torn-off update of step %llu\n",
                 static_cast<unsigned long long>(t));
  }

  run_script_steps(journal, done, draws > done ? draws : done,
                   args.get_u64("checkpoint-every", 0),
                   args.get_u64("throttle-us", 0));
  journal.sync();
  std::fprintf(stderr, "lrb: resume dir=%s recovered=%llu total=%llu\n",
               dir.c_str(), static_cast<unsigned long long>(done),
               static_cast<unsigned long long>(draws > done ? draws : done));
  return 0;
}

int cmd_replay(const lrb::CliArgs& args) {
  std::string snapshot = args.get_string("snapshot", "");
  std::string log = args.get_string("log", "");
  const std::string dir = args.get_string("dir", "");
  if (!dir.empty()) {
    if (snapshot.empty()) {
      snapshot = lrb::persist::WheelJournal::snapshot_path(dir);
    }
    if (log.empty()) log = lrb::persist::WheelJournal::log_path(dir);
  }
  if (snapshot.empty() || log.empty()) {
    std::fprintf(stderr,
                 "lrb: replay needs --dir=D or --snapshot=S --log=L\n");
    return 2;
  }
  const lrb::persist::ReplayReport report =
      lrb::persist::replay(snapshot, log);
  for (const lrb::persist::ReplayMismatch& m : report.first_mismatches) {
    std::fprintf(stderr,
                 "lrb: replay MISMATCH at draw %llu: logged %llu, "
                 "re-derived %llu\n",
                 static_cast<unsigned long long>(m.draw_ordinal),
                 static_cast<unsigned long long>(m.logged),
                 static_cast<unsigned long long>(m.replayed));
  }
  std::fprintf(stderr,
               "lrb: replay records=%llu draws=%llu updates=%llu "
               "reshards=%llu checkpoints=%llu mismatches=%llu%s -> %s\n",
               static_cast<unsigned long long>(report.records),
               static_cast<unsigned long long>(report.draws),
               static_cast<unsigned long long>(report.updates),
               static_cast<unsigned long long>(report.reshards),
               static_cast<unsigned long long>(report.checkpoints),
               static_cast<unsigned long long>(report.mismatches),
               report.torn_tail ? " (torn tail dropped)" : "",
               report.clean() ? "CLEAN" : "MISMATCH");
  return report.clean() ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: lrb <select|sample|shuffle|validate|race|dist|wheelset|"
               "record|resume|replay|list> [options] [weights... | -]\n"
               "dist flags: --ranks=<1..1024> --draws --batch --seed "
               "--fault-seed=<u64> --fault-spec=<spec>\n"
               "wheelset flags: --wheels=<K> --draws=<per wheel> --seed\n"
               "record flags: --dir=<D> --draws --wheels --seed "
               "--flush=every|batch|off --checkpoint-every --throttle-us\n"
               "resume flags: --dir=<D> --draws (continues the record script; "
               "output is byte-identical to an uninterrupted record)\n"
               "replay flags: --dir=<D> | --snapshot=<S> --log=<L> "
               "(exit 0 iff every logged winner re-derives)\n"
               "global flags: --stats (metrics table after the run), "
               "--trace=<path> (Chrome trace JSON)\n"
               "run `lrb list` to see the selector algorithms.\n");
}

#if defined(LRB_OBS_ENABLED)

/// Renders the global Registry snapshot through common/table.hpp: counters
/// and gauges as plain values, histograms with their exact count/mean and
/// the log2-resolution tail quantiles.
void print_stats() {
  const lrb::obs::Snapshot snap = lrb::obs::Registry::global().snapshot();
  if (snap.empty()) {
    std::fprintf(stderr, "lrb: no metrics recorded\n");
    return;
  }
  lrb::Table table({"metric", "type", "value", "mean", "p50", "p99", "p999",
                    "max"});
  table.set_align(0, lrb::Align::kLeft);
  table.set_align(1, lrb::Align::kLeft);
  for (const auto& [name, value] : snap.counters) {
    table.add_row({name, "counter", lrb::format_count(value), "", "", "", "",
                   ""});
  }
  for (const auto& [name, value] : snap.gauges) {
    table.add_row({name, "gauge", std::to_string(value), "", "", "", "", ""});
  }
  for (const auto& [name, h] : snap.histograms) {
    table.add_row({name, "histogram", lrb::format_count(h.count),
                   lrb::format_fixed(h.mean(), 1),
                   lrb::format_fixed(h.percentile(0.50), 0),
                   lrb::format_fixed(h.percentile(0.99), 0),
                   lrb::format_fixed(h.percentile(0.999), 0),
                   h.count == 0 ? "" : lrb::format_count(h.max)});
  }
  table.print(std::cout);
}

#endif  // LRB_OBS_ENABLED

/// Applies --trace before the run; returns whether --stats should print
/// after it.  Under -DLRB_OBS=OFF both flags warn instead of silently doing
/// nothing — an operator asking for metrics should learn why there are none.
bool handle_obs_flags(const lrb::CliArgs& args) {
  const bool want_stats = args.get_bool("stats", false);
#if defined(LRB_OBS_ENABLED)
  if (args.has("trace")) lrb::obs::trace_enable(args.get_string("trace", ""));
#else
  if (want_stats || args.has("trace")) {
    std::fprintf(stderr,
                 "lrb: built with -DLRB_OBS=OFF; --stats/--trace are inert\n");
  }
#endif
  return want_stats;
}

void finish_obs(bool want_stats) {
#if defined(LRB_OBS_ENABLED)
  // Flush eagerly so the trace file exists even on exception exit paths
  // (atexit still rewrites it with any later events).
  lrb::obs::trace_flush();
  if (want_stats) print_stats();
#else
  static_cast<void>(want_stats);
#endif
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const lrb::CliArgs args(argc, argv);
    if (args.positionals().empty()) {
      usage();
      return 2;
    }
    const std::string& cmd = args.positionals()[0];
    const bool want_stats = handle_obs_flags(args);
    if (cmd == "list") return cmd_list();
    // resume and replay read their state from disk, not from weights.
    if (cmd == "resume" || cmd == "replay") {
      const int rc = cmd == "resume" ? cmd_resume(args) : cmd_replay(args);
      finish_obs(want_stats);
      return rc;
    }
    const auto weights = read_weights(args);
    if (weights.empty()) {
      std::fprintf(stderr, "lrb: no weights given (args or stdin)\n");
      return 2;
    }
    int rc = 2;
    if (cmd == "select") rc = cmd_select(args, weights);
    else if (cmd == "sample") rc = cmd_sample(args, weights);
    else if (cmd == "shuffle") rc = cmd_shuffle(args, weights);
    else if (cmd == "validate") rc = cmd_validate(args, weights);
    else if (cmd == "race") rc = cmd_race(args, weights);
    else if (cmd == "dist") rc = cmd_dist(args, weights);
    else if (cmd == "wheelset") rc = cmd_wheelset(args, weights);
    else if (cmd == "record") rc = cmd_record(args, weights);
    else {
      usage();
      return 2;
    }
    finish_obs(want_stats);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lrb: %s\n", e.what());
    return 2;
  }
}
