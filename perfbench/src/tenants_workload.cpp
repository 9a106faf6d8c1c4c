// tenants: one core::WheelSet of 100,000 small wheels (about 4.7M items),
// hit by Zipf-popular batches of 1,024 entries — 128 updates applied first,
// then 896 draw entries served by one draw_batch_into.
//
// The traced split rebuilds each batch from the public calls the arena
// makes internally — key tiles, simd::Ops::philox_bits_keyed,
// simd::segmented_bound_pass, then the bid_filter::RecordScan — and
// requires the same winners as the arena's own batch.
#include <cstring>
#include <limits>
#include <unordered_map>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/bid_filter.hpp"
#include "core/deterministic.hpp"
#include "core/wheel_set.hpp"
#include "rng/seed.hpp"
#include "rng/xoshiro256.hpp"
#include "simd/dispatch.hpp"
#include "simd/segmented.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using lrb::core::WheelSet;

constexpr std::size_t kWheels = 100000;
constexpr std::size_t kWarmupOps = 8;
/// Draw entries re-derived serially per op: about 2.7% of the winners.
constexpr std::size_t kCheckEntries = 24;
/// WheelSet's tile capacity (kTile in core/wheel_set.hpp).
constexpr std::size_t kTile = 2048;
/// Traced ops that also run the split: one in kSplitEvery.
constexpr std::size_t kSplitEvery = 4;

/// Heap bytes currently in use (0 where the C library cannot say).
std::size_t heap_in_use() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
#else
  return 0;
#endif
}

/// Re-derives `winners` of `op` (already applied to `ws`) with a serial
/// core::DeterministicBidder over the wheel's current values, for
/// kCheckEntries draw entries chosen by `pick_seed`.  False on the first
/// disagreement.
bool check_winners(const WheelSet& ws, const TenantOp& op,
                   const std::vector<std::size_t>& winners,
                   std::uint64_t pick_seed) {
  if (winners.size() != op.winners) return false;
  lrb::rng::Xoshiro256StarStar gen(pick_seed);
  for (std::size_t s = 0; s < kCheckEntries; ++s) {
    const std::size_t e = lrb::rng::uniform_below(gen, op.draws.size());
    const std::size_t w = op.draws[e].wheel;
    // The wheel's cursor before entry e: its cursor now, minus the draws
    // this op took from it at entry e and later.
    std::uint64_t later = 0;
    for (std::size_t f = e; f < op.draws.size(); ++f) {
      if (op.draws[f].wheel == w) later += op.draws[f].draws;
    }
    lrb::core::DeterministicBidder bidder(ws.seed(w));
    bidder.seek(ws.cursor(w) - later);
    for (std::size_t d = 0; d < op.draws[e].draws; ++d) {
      if (bidder.select(ws.wheel_values(w)) != winners[op.first_winner[e] + d]) {
        return false;
      }
    }
  }
  return true;
}

class TenantsWorkload final : public Workload {
 public:
  explicit TenantsWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    in_ = make_tenants_input(kWheels, seed_);
    const std::size_t heap_before = heap_in_use();
    ws_ = make_arena(in_, seed_);
    const std::size_t heap_after = heap_in_use();
    arena_bytes_ = heap_after > heap_before ? heap_after - heap_before : 0;
    for (std::size_t i = 0; i < kWarmupOps; ++i) (void)run_op(i);
  }

  OpResult run_op(std::size_t i) override {
    const TenantOp& op = in_.op(i);
    for (const TenantUpdate& u : op.updates) {
      ws_.update(u.wheel, u.item, resolve(u, ws_.value(u.wheel, u.item)));
    }
    winners_.clear();
    ws_.draw_batch_into(op.draws, winners_);
    return {winners_.size(), true};
  }

  OpResult run_traced_op(std::size_t i, Tracer& t) override {
    if (packed_f_.empty()) pack_all();
    const TenantOp& op = in_.op(i);
    t.set_op(i);
    {
      Tracer::Scope s(t, "tenants.op", op.winners);
      for (const TenantUpdate& u : op.updates) {
        const double v = resolve(u, ws_.value(u.wheel, u.item));
        Tracer::Scope us(t, "core.wheelset_update");
        ws_.update(u.wheel, u.item, v);
      }
      winners_.clear();
      Tracer::Scope ds(t, "core.wheelset_draw_batch", op.winners);
      ws_.draw_batch_into(op.draws, winners_);
    }
    for (const TenantUpdate& u : op.updates) repack(u.wheel);
    for (const auto& d : op.draws) {
      traced_items_ += d.draws * packed_count_[d.wheel];
    }
    traced_draws_ += winners_.size();
    if (traced_ops_++ % kSplitEvery != 0) return {winners_.size(), true};
    return {winners_.size(), split(op, t) == winners_};
  }

  std::size_t check_op(std::size_t i) override {
    const std::uint64_t pick = lrb::rng::SeedSequence(seed_).child("check", i);
    return check_winners(ws_, in_.op(i), winners_, pick) ? 0 : 1;
  }

  void layer_metrics(const Tracer& t, const ObsDelta& obs,
                     Metrics& out) const override {
    const Tracer::Stat draw = t.stat("core.wheelset_draw_batch");
    const Tracer::Stat update = t.stat("core.wheelset_update");
    const auto draws = static_cast<double>(traced_draws_);
    const auto items = static_cast<double>(traced_items_);
    out.push_back({"core.wheelset_draw_ns", draw.total_ns / draws, "ns"});
    out.push_back(
        {"core.wheelset_draw_ns_per_item", draw.total_ns / items, "ns"});
    out.push_back({"core.wheelset_update_ns",
                   static_cast<double>(update.total_ns) / update.calls, "ns"});
    const auto evals = obs.get("lrb_wheelset_log_evals_total");
    const auto drawn = obs.get("lrb_wheelset_draws_total");
    if (evals && drawn && *drawn > 0) {
      out.push_back({"core.wheelset_log_evals_per_draw",
                     static_cast<double>(*evals) / *drawn, "count"});
    }
    out.push_back({"core.arena_bytes_per_item",
                   static_cast<double>(arena_bytes_) / ws_.total_items(), "B"});
    const auto staged = static_cast<double>(split_items_);
    out.push_back({"simd.philox_keyed_ns_per_item",
                   t.stat("simd.philox_bits_keyed").total_ns / staged, "ns"});
    out.push_back({"simd.segmented_bound_ns_per_item",
                   t.stat("simd.segmented_bound_pass").total_ns / staged, "ns"});
  }

  void dump_requests(std::size_t ops,
                     std::vector<std::uint8_t>& out) const override {
    make_tenants_input(kWheels, seed_).dump(ops, out);
  }

 private:
  /// One ragged slice of a draw in the tile (mirrors WheelSet::Chunk).
  struct Chunk {
    std::size_t abase = 0;       // wheel's offset into the packed arrays
    std::size_t active_abs = 0;  // chunk start in the packed arrays
    std::size_t pos0 = 0;        // chunk start within the wheel's active set
    bool closes = false;
  };

  void pack_all() {
    packed_stream_.assign(ws_.total_items(), 0);
    packed_f_.assign(ws_.total_items(), 0.0);
    packed_inv_.assign(ws_.total_items(), 0.0);
    packed_count_.assign(ws_.wheels(), 0);
    for (std::size_t w = 0; w < ws_.wheels(); ++w) repack(w);
  }

  /// The wheel's positive items, packed in item order — the layout the
  /// arena draws from (local item index = Philox stream).
  void repack(std::size_t w) {
    const std::span<const double> v = ws_.wheel_values(w);
    const std::size_t base = in_.offsets[w];
    std::size_t p = 0;
    for (std::size_t j = 0; j < v.size(); ++j) {
      if (!(v[j] > 0.0)) continue;
      packed_stream_[base + p] = j;
      packed_f_[base + p] = v[j];
      packed_inv_[base + p] = lrb::core::bid_filter::bound_reciprocal(v[j]);
      ++p;
    }
    packed_count_[w] = p;
  }

  /// Re-derives the op's winners stage by stage, one span per stage and
  /// tile.  Runs after the arena's batch, so each entry's first draw id is
  /// the wheel's cursor minus the draws this op took from it at that entry
  /// and later.
  std::vector<std::size_t> split(const TenantOp& op, Tracer& t) {
    Tracer::Scope split_span(t, "tenants.split");
    const std::size_t entries = op.draws.size();
    entry_t0_.resize(entries);
    entry_seed_.resize(entries);
    std::unordered_map<std::size_t, std::uint64_t> next;
    for (const auto& d : op.draws) next[d.wheel] += d.draws;
    for (auto& [w, taken] : next) taken = ws_.cursor(w) - taken;
    for (std::size_t e = 0; e < entries; ++e) {
      const std::size_t w = op.draws[e].wheel;
      entry_t0_[e] = next[w];
      next[w] += op.draws[e].draws;
      entry_seed_[e] = ws_.seed(w);
    }

    const lrb::simd::Ops& ops = lrb::simd::ops();
    std::vector<std::size_t> out;
    out.reserve(op.winners);
    segs_.clear();
    chunks_.clear();
    std::size_t pos = 0;
    lrb::core::bid_filter::RecordScan race;
    const auto flush = [&]() {
      if (pos == 0) return;
      {
        Tracer::Scope s(t, "simd.philox_bits_keyed", pos);
        ops.philox_bits_keyed(seed_tile_, ctr_tile_, stream_tile_, bits_, pos);
      }
      {
        Tracer::Scope s(t, "simd.segmented_bound_pass", pos);
        lrb::simd::segmented_bound_pass(ops, bits_, inv_tile_, u_, ub_, pos,
                                        segs_.data(), segs_.size(), nullptr);
      }
      Tracer::Scope s(t, "core.record_scan", pos);
      for (std::size_t c = 0; c < chunks_.size(); ++c) {
        const Chunk& ch = chunks_[c];
        const lrb::simd::Segment sg = segs_[c];
        if (!race.found) {
          // The arena's probe: strongest bound first, then masked.
          const double* ubs = ub_ + sg.begin;
          std::size_t pm = 0;
          for (std::size_t j = 1; j < sg.len; ++j) {
            if (ubs[j] > ubs[pm]) pm = j;
          }
          race.probe(u_[sg.begin + pm], packed_f_[ch.active_abs + pm],
                     ch.pos0 + pm);
          ub_[sg.begin + pm] = -std::numeric_limits<double>::infinity();
        }
        race.scan(u_ + sg.begin, ub_ + sg.begin,
                  packed_f_.data() + ch.active_abs, ch.pos0, sg.len);
        if (ch.closes) {
          out.push_back(packed_stream_[ch.abase + race.best_pos]);
          race = lrb::core::bid_filter::RecordScan{};
        }
      }
      segs_.clear();
      chunks_.clear();
      pos = 0;
    };

    t.begin("core.wheelset_stage_keys");
    for (std::size_t e = 0; e < entries; ++e) {
      const std::size_t w = op.draws[e].wheel;
      const std::size_t abase = in_.offsets[w];
      const std::size_t k = packed_count_[w];
      for (std::size_t d = 0; d < op.draws[e].draws; ++d) {
        const std::uint64_t draw_id = entry_t0_[e] + d;
        std::size_t done = 0;
        while (done < k) {
          if (pos == kTile) {
            t.end();
            flush();
            t.begin("core.wheelset_stage_keys");
          }
          const std::size_t take = std::min(k - done, kTile - pos);
          std::fill_n(seed_tile_ + pos, take, entry_seed_[e]);
          std::fill_n(ctr_tile_ + pos, take, draw_id);
          std::memcpy(stream_tile_ + pos, packed_stream_.data() + abase + done,
                      take * sizeof(std::uint64_t));
          std::memcpy(inv_tile_ + pos, packed_inv_.data() + abase + done,
                      take * sizeof(double));
          segs_.push_back({pos, take});
          chunks_.push_back({abase, abase + done, done, done + take == k});
          pos += take;
          done += take;
        }
        split_items_ += k;
      }
    }
    t.end();
    flush();
    return out;
  }

  std::uint64_t seed_;
  TenantsInput in_;
  WheelSet ws_;
  std::vector<std::size_t> winners_;
  std::size_t arena_bytes_ = 0;
  std::uint64_t traced_ops_ = 0;
  std::uint64_t traced_draws_ = 0;
  std::uint64_t traced_items_ = 0;
  std::uint64_t split_items_ = 0;

  // Split state: packed active sets and the tile scratch.
  std::vector<std::uint64_t> packed_stream_;
  std::vector<double> packed_f_;
  std::vector<double> packed_inv_;
  std::vector<std::size_t> packed_count_;
  std::vector<std::uint64_t> entry_t0_;
  std::vector<std::uint64_t> entry_seed_;
  std::vector<lrb::simd::Segment> segs_;
  std::vector<Chunk> chunks_;
  alignas(64) std::uint64_t seed_tile_[kTile];
  alignas(64) std::uint64_t ctr_tile_[kTile];
  alignas(64) std::uint64_t stream_tile_[kTile];
  alignas(64) std::uint64_t bits_[kTile];
  alignas(64) double inv_tile_[kTile];
  alignas(64) double u_[kTile];
  alignas(64) double ub_[kTile];
};

}  // namespace

std::unique_ptr<Workload> make_tenants_workload(std::uint64_t seed) {
  return std::make_unique<TenantsWorkload>(seed);
}

}  // namespace perfbench
