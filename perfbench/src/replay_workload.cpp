// replay_1m: one large sparse wheel on the same-winners-at-any-P replay
// contract.  A dist::ShardedFitness of n = 1,000,000 (10% positive) over
// P = 4 simulated ranks; one op is 32 ShardedFitness::update calls on
// random positive items, then DeterministicDistributedBidder::select_batch
// of 32 draws.
//
// The traced split rebuilds each batch from the public calls the library
// makes — a DeterministicDrawKernel per shard, draw_scored per draw, then
// dist::allreduce_argmax_batch — and requires the library's winners and
// communication bill.  It also times the three simd::ops() stages of the
// kernel on each shard's active stream for the batch's first draw.
#include <limits>
#include <memory>
#include <numeric>

#include "core/bid_filter.hpp"
#include "core/deterministic.hpp"
#include "dist/collectives.hpp"
#include "dist/selection.hpp"
#include "dist/sharding.hpp"
#include "rng/seed.hpp"
#include "rng/xoshiro256.hpp"
#include "simd/dispatch.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kItems = 1000000;
constexpr std::size_t kPositive = kItems / 10;
constexpr std::size_t kRanks = 4;
constexpr std::size_t kBatch = 32;
constexpr std::size_t kPoolOps = 256;
constexpr std::size_t kWarmupOps = 2;
/// Traced ops that also run the split: one in kSplitEvery.
constexpr std::size_t kSplitEvery = 4;
/// Draws of a split batch whose SIMD stages are timed: one in kStageEvery.
constexpr std::size_t kStageEvery = 8;
/// DeterministicDrawKernel's block (kBlock in core/deterministic.hpp).
constexpr std::size_t kBlock = 256;

struct Update {
  std::uint64_t index = 0;
  double value = 0.0;
};

/// The generated input: initial values and a pool of per-op updates.
/// Updates only re-weight items that start positive, so the active count
/// stays exactly 10% however long the run.
struct ReplayInput {
  std::vector<double> values;
  std::vector<std::vector<Update>> pool;
};

ReplayInput make_replay_input(std::uint64_t seed) {
  lrb::rng::Xoshiro256StarStar gen(
      lrb::rng::SeedSequence(seed).child("replay-input"));
  std::vector<std::uint64_t> index(kItems);
  std::iota(index.begin(), index.end(), 0u);
  // Partial Fisher-Yates: the first kPositive slots become the positives.
  for (std::size_t i = 0; i < kPositive; ++i) {
    std::swap(index[i], index[i + lrb::rng::uniform_below(gen, kItems - i)]);
  }
  ReplayInput in;
  in.values.assign(kItems, 0.0);
  for (std::size_t i = 0; i < kPositive; ++i) {
    in.values[index[i]] = heavy_tailed(gen);
  }
  in.pool.resize(kPoolOps);
  for (auto& op : in.pool) {
    op.resize(kBatch);
    for (Update& u : op) {
      u = {index[lrb::rng::uniform_below(gen, kPositive)], heavy_tailed(gen)};
    }
  }
  return in;
}

class ReplayWorkload final : public Workload {
 public:
  explicit ReplayWorkload(std::uint64_t seed)
      : seed_(seed),
        bid_seed_(lrb::rng::SeedSequence(seed).child("bidder")),
        bidder_(bid_seed_) {}

  void setup() override {
    in_ = make_replay_input(seed_);
    values_ = in_.values;
    shards_ = std::make_unique<lrb::dist::ShardedFitness>(in_.values, kRanks);
    for (std::size_t i = 0; i < kWarmupOps; ++i) (void)run_op(i);
  }

  OpResult run_op(std::size_t i) override {
    for (const Update& u : op(i)) {
      shards_->update(u.index, u.value);
      values_[u.index] = u.value;
    }
    first_draw_ = bidder_.next_draw_id();
    batch_ = bidder_.select_batch(*shards_, kBatch);
    return {batch_.indices.size(), true};
  }

  OpResult run_traced_op(std::size_t i, Tracer& t) override {
    t.set_op(i);
    {
      Tracer::Scope s(t, "replay_1m.op", kBatch);
      for (const Update& u : op(i)) {
        Tracer::Scope us(t, "dist.update");
        shards_->update(u.index, u.value);
      }
      first_draw_ = bidder_.next_draw_id();
      Tracer::Scope bs(t, "dist.select_batch", kBatch);
      batch_ = bidder_.select_batch(*shards_, kBatch);
    }
    for (const Update& u : op(i)) values_[u.index] = u.value;
    traced_draws_ += kBatch;
    traced_rounds_ += batch_.comm.rounds;
    traced_words_ += batch_.comm.words;
    return {batch_.indices.size(), traced_ops_++ % kSplitEvery != 0 || split(t)};
  }

  std::size_t check_op(std::size_t i) override {
    // Every other op re-derives one winner with the serial bidder over the
    // values at draw time: 1 in 64 winners.
    if (i % 2 != 0) return 0;
    const std::size_t j = (i / 2 * 7) % kBatch;
    lrb::core::DeterministicBidder serial(bid_seed_);
    serial.seek(first_draw_ + j);
    return serial.select(values_) == batch_.indices[j] ? 0 : 1;
  }

  void layer_metrics(const Tracer& t, const ObsDelta& obs,
                     Metrics& out) const override {
    const Tracer::Stat build = t.stat("core.det_build");
    const Tracer::Stat draw = t.stat("core.det_draw");
    const Tracer::Stat philox = t.stat("simd.philox_bits_streams");
    const Tracer::Stat u01 = t.stat("simd.fill_u01_from_bits");
    const Tracer::Stat bound = t.stat("simd.bound_pass");
    const Tracer::Stat reduce = t.stat("dist.allreduce_argmax_batch");
    const Tracer::Stat update = t.stat("dist.update");
    const double draw_per_item =
        static_cast<double>(draw.total_ns) / drawn_items_;
    const double stages = static_cast<double>(philox.total_ns + u01.total_ns +
                                              bound.total_ns) /
                          stage_items_;
    out.push_back({"core.det_build_us",
                   build.total_ns / 1e3 / static_cast<double>(build.calls),
                   "us"});
    out.push_back({"core.det_draw_ns_per_item", draw_per_item, "ns"});
    const auto evals = obs.get("lrb_core_det_log_evals_total");
    const auto drawn = obs.get("lrb_core_det_draws_total");
    if (evals && drawn && *drawn > 0) {
      out.push_back({"core.det_log_evals_per_draw",
                     static_cast<double>(*evals) / *drawn, "count"});
    }
    out.push_back({"simd.philox_streams_ns_per_item",
                   static_cast<double>(philox.total_ns) / stage_items_, "ns"});
    out.push_back({"simd.u01_ns_per_item",
                   static_cast<double>(u01.total_ns) / stage_items_, "ns"});
    out.push_back({"simd.bound_pass_ns_per_item",
                   static_cast<double>(bound.total_ns) / stage_items_, "ns"});
    out.push_back(
        {"core.det_scan_residual_ns_per_item", draw_per_item - stages, "ns"});
    out.push_back({"dist.allreduce_us",
                   reduce.total_ns / 1e3 / static_cast<double>(reduce.calls),
                   "us"});
    const auto draws = static_cast<double>(traced_draws_);
    out.push_back({"dist.rounds_per_draw", traced_rounds_ / draws, "count"});
    out.push_back({"dist.words_per_draw", traced_words_ / draws, "count"});
    out.push_back({"dist.update_ns",
                   static_cast<double>(update.total_ns) / update.calls, "ns"});
  }

  void dump_requests(std::size_t ops,
                     std::vector<std::uint8_t>& out) const override {
    const ReplayInput in = make_replay_input(seed_);
    ByteSink sink(out);
    for (double v : in.values) sink.f64(v);
    for (std::size_t i = 0; i < ops; ++i) {
      for (const Update& u : in.pool[i % kPoolOps]) {
        sink.u64(u.index);
        sink.f64(u.value);
      }
    }
  }

 private:
  [[nodiscard]] const std::vector<Update>& op(std::size_t i) const {
    return in_.pool[i % kPoolOps];
  }

  /// The batch rebuilt from per-shard kernels and one batched allreduce;
  /// true when winners and ledger equal the library's.
  bool split(Tracer& t) {
    Tracer::Scope s(t, "replay_1m.split");
    const lrb::dist::ShardedFitness& sf = *shards_;
    constexpr double kNoBid = -std::numeric_limits<double>::infinity();
    constexpr std::uint64_t kNoIndex = ~std::uint64_t{0};
    std::vector<std::vector<lrb::dist::ArgMax>> local(
        kRanks,
        std::vector<lrb::dist::ArgMax>(kBatch, lrb::dist::ArgMax{kNoBid, kNoIndex}));
    for (std::size_t r = 0; r < kRanks; ++r) {
      if (!(sf.shard_sum(r) > 0.0)) continue;
      const lrb::parallel::Range range = sf.shard_range(r);
      std::unique_ptr<lrb::core::DeterministicDrawKernel> kernel;
      {
        Tracer::Scope ks(t, "core.det_build", range.end - range.begin);
        kernel = std::make_unique<lrb::core::DeterministicDrawKernel>(
            sf.shard(r), range.begin);
      }
      for (std::size_t d = 0; d < kBatch; ++d) {
        Tracer::Scope ds(t, "core.det_draw", kernel->active_count());
        const auto won = kernel->draw_scored(bid_seed_, first_draw_ + d);
        local[r][d] = lrb::dist::ArgMax{won.bid, won.index};
      }
      drawn_items_ += kBatch * kernel->active_count();
      time_stages(sf, r, t);
    }
    lrb::dist::CommLedger ledger;
    std::vector<std::vector<lrb::dist::ArgMax>> winners;
    {
      Tracer::Scope as(t, "dist.allreduce_argmax_batch", kBatch);
      winners = lrb::dist::allreduce_argmax_batch(sf.topology(), local, ledger);
    }
    if (!(ledger == batch_.comm)) return false;
    for (std::size_t d = 0; d < kBatch; ++d) {
      if (winners[0][d].index != batch_.indices[d]) return false;
    }
    return true;
  }

  /// The kernel's three SIMD stages over shard r's active stream, for one
  /// in kStageEvery of the batch's draw ids, in the kernel's blocks with
  /// L1-resident scratch (as draw_scored runs them).  Each stage gets one
  /// span over all blocks; the later stages re-read the last block's
  /// scratch, which costs the same as fresh values — both kernels are
  /// branch-free.
  void time_stages(const lrb::dist::ShardedFitness& sf, std::size_t r,
                   Tracer& t) {
    const lrb::parallel::Range range = sf.shard_range(r);
    const std::span<const double> shard = sf.shard(r);
    streams_.clear();
    inv_f_.clear();
    for (std::size_t j = 0; j < shard.size(); ++j) {
      if (!(shard[j] > 0.0)) continue;
      streams_.push_back(range.begin + j);
      inv_f_.push_back(lrb::core::bid_filter::bound_reciprocal(shard[j]));
    }
    const std::size_t k = streams_.size();
    const lrb::simd::Ops& ops = lrb::simd::ops();
    alignas(64) std::uint64_t bits[kBlock] = {};
    alignas(64) double u[kBlock] = {};
    alignas(64) double ub[kBlock];
    for (std::size_t d = 0; d < kBatch; d += kStageEvery) {
      {
        Tracer::Scope s(t, "simd.philox_bits_streams", k);
        for (std::size_t b = 0; b < k; b += kBlock) {
          ops.philox_bits_streams(bid_seed_, first_draw_ + d,
                                  streams_.data() + b, bits,
                                  std::min(kBlock, k - b));
        }
      }
      {
        Tracer::Scope s(t, "simd.fill_u01_from_bits", k);
        for (std::size_t b = 0; b < k; b += kBlock) {
          ops.fill_u01_from_bits(bits, u, std::min(kBlock, k - b));
        }
      }
      {
        Tracer::Scope s(t, "simd.bound_pass", k);
        for (std::size_t b = 0; b < k; b += kBlock) {
          sink_ += ops.bound_pass(u, inv_f_.data() + b, ub,
                                  std::min(kBlock, k - b));
        }
      }
      sink_ += u[0] + static_cast<double>(bits[0] & 1);
      stage_items_ += k;
    }
  }

  std::uint64_t seed_;
  std::uint64_t bid_seed_;
  ReplayInput in_;
  std::vector<double> values_;  // the values at draw time, for checks
  std::unique_ptr<lrb::dist::ShardedFitness> shards_;
  lrb::dist::DeterministicDistributedBidder bidder_;
  lrb::dist::BatchDrawResult batch_;
  std::uint64_t first_draw_ = 0;

  std::uint64_t traced_ops_ = 0;
  std::uint64_t traced_draws_ = 0;
  std::uint64_t traced_rounds_ = 0;
  std::uint64_t traced_words_ = 0;
  std::uint64_t drawn_items_ = 0;
  std::uint64_t stage_items_ = 0;
  double sink_ = 0.0;  // keeps the timed stages observable
  std::vector<std::uint64_t> streams_;
  std::vector<double> inv_f_;
};

}  // namespace

std::unique_ptr<Workload> make_replay_workload(std::uint64_t seed) {
  return std::make_unique<ReplayWorkload>(seed);
}

}  // namespace perfbench
