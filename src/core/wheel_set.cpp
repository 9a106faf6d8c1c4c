// WheelSet out-of-line parts: admission, point updates, the batched draw
// engine, and the occupancy gauge bookkeeping (see wheel_set.hpp).
#include "core/wheel_set.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/math.hpp"
#include "core/bid_filter.hpp"
#include "obs/obs.hpp"
#include "rng/wheel_keys.hpp"
#include "simd/dispatch.hpp"

namespace lrb::core {

namespace {
// Shared error-surface helper: "wheel 3" in every message, so a service
// log names the tenant, not just an index.
std::string wheel_str(std::size_t wheel) {
  return "wheel " + std::to_string(wheel);
}
}  // namespace

WheelSet::WheelSet(WheelSet&& other) noexcept
    : set_seed_(other.set_seed_),
      offsets_(std::move(other.offsets_)),
      values_(std::move(other.values_)),
      seeds_(std::move(other.seeds_)),
      cursors_(std::move(other.cursors_)),
      positive_count_(std::move(other.positive_count_)),
      active_streams_(std::move(other.active_streams_)),
      active_f_(std::move(other.active_f_)),
      active_inv_f_(std::move(other.active_inv_f_)),
      total_active_(other.total_active_) {
  // The moved-from arena must stay a valid (empty) arena whose destructor
  // releases nothing: the gauges moved with the wheels.
  other.offsets_.assign(1, 0);
  other.total_active_ = 0;
}

WheelSet& WheelSet::operator=(WheelSet&& other) noexcept {
  if (this != &other) {
    release_gauges();
    set_seed_ = other.set_seed_;
    offsets_ = std::move(other.offsets_);
    values_ = std::move(other.values_);
    seeds_ = std::move(other.seeds_);
    cursors_ = std::move(other.cursors_);
    positive_count_ = std::move(other.positive_count_);
    active_streams_ = std::move(other.active_streams_);
    active_f_ = std::move(other.active_f_);
    active_inv_f_ = std::move(other.active_inv_f_);
    total_active_ = other.total_active_;
    other.offsets_.assign(1, 0);
    other.total_active_ = 0;
  }
  return *this;
}

WheelSet::~WheelSet() { release_gauges(); }

void WheelSet::release_gauges() noexcept {
  LRB_OBS_GAUGE_SUB("lrb_wheelset_wheels", wheels());
  LRB_OBS_GAUGE_SUB("lrb_wheelset_items", total_items());
  LRB_OBS_GAUGE_SUB("lrb_wheelset_active_items", total_active_);
}

void WheelSet::check_wheel(std::size_t wheel, const char* what) const {
  LRB_REQUIRE(wheel < wheels(), InvalidArgumentError,
              std::string(what) + ": " + wheel_str(wheel) +
                  " out of range (wheels: " + std::to_string(wheels()) + ")");
}

void WheelSet::check_item(std::size_t wheel, std::size_t item,
                          const char* what) const {
  check_wheel(wheel, what);
  LRB_REQUIRE(item < offsets_[wheel + 1] - offsets_[wheel],
              InvalidArgumentError,
              std::string(what) + ": index " + std::to_string(item) +
                  " out of range for " + wheel_str(wheel) +
                  " (size: " +
                  std::to_string(offsets_[wheel + 1] - offsets_[wheel]) + ")");
}

std::size_t WheelSet::add_wheel(std::span<const double> fitness) {
  return add_wheel(fitness, rng::wheel_seed(set_seed_, wheels()));
}

std::size_t WheelSet::add_wheel(std::span<const double> fitness,
                                std::uint64_t wheel_seed) {
  // The uniform selector error surface (finite, non-negative, index+value
  // named), but a zero TOTAL is legal at admission: tenants arrive empty
  // and fill in via update(); prepare_batch rejects drawing from them.
  (void)checked_fitness_total(fitness, /*require_positive_total=*/false);
  const std::size_t w = wheels();
  const std::size_t base = offsets_.back();
  const std::size_t n = fitness.size();
  values_.insert(values_.end(), fitness.begin(), fitness.end());
  offsets_.push_back(base + n);
  active_streams_.resize(base + n);
  active_f_.resize(base + n);
  active_inv_f_.resize(base + n);
  seeds_.push_back(wheel_seed);
  cursors_.push_back(0);
  const std::size_t positives = count_nonzero(fitness);
  positive_count_.push_back(positives);
  rebuild_active(w);
  total_active_ += positives;
  LRB_OBS_GAUGE_ADD("lrb_wheelset_wheels", 1);
  LRB_OBS_GAUGE_ADD("lrb_wheelset_items", n);
  LRB_OBS_GAUGE_ADD("lrb_wheelset_active_items", positives);
  return w;
}

void WheelSet::rebuild_active(std::size_t wheel) {
  const std::size_t base = offsets_[wheel];
  const std::size_t n = offsets_[wheel + 1] - base;
  std::size_t p = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double f = values_[base + i];
    if (!(f > 0.0)) continue;
    active_streams_[base + p] = i;  // LOCAL index == per-wheel Philox stream
    active_f_[base + p] = f;
    active_inv_f_[base + p] = bid_filter::bound_reciprocal(f);
    ++p;
  }
  LRB_ASSERT(p == positive_count_[wheel],
             "packed active prefix must match the maintained positive count");
}

void WheelSet::update(std::size_t wheel, std::size_t item, double fitness) {
  check_item(wheel, item, "update");
  // Same message shape as ShardedFitness::update / checked_fitness_total:
  // the offending wheel, index, and value.
  LRB_REQUIRE(std::isfinite(fitness), InvalidFitnessError,
              "update: fitness must be finite (" + wheel_str(wheel) +
                  ", index " + std::to_string(item) + ", value " +
                  detail::fitness_value_str(fitness) + ")");
  LRB_REQUIRE(fitness >= 0.0, InvalidFitnessError,
              "update: fitness must be non-negative (" + wheel_str(wheel) +
                  ", index " + std::to_string(item) + ", value " +
                  detail::fitness_value_str(fitness) + ")");
  const std::size_t base = offsets_[wheel];
  const bool was = values_[base + item] > 0.0;
  const bool now = fitness > 0.0;
  values_[base + item] = fitness;
  // The packed prefix stays sorted by local index (the rule of
  // DeterministicDrawKernel::set): a re-weight patches its slot, a flip
  // shifts the tail [p, end) one slot inside the wheel's own n_w-sized
  // segment — O(k_w), never an allocation.
  const std::size_t end = base + positive_count_[wheel];
  const std::size_t p = static_cast<std::size_t>(
      std::lower_bound(active_streams_.begin() + base,
                       active_streams_.begin() + end, std::uint64_t{item}) -
      active_streams_.begin());
  const auto shift = [&](auto& v) {
    if (now) {
      std::copy_backward(v.begin() + p, v.begin() + end, v.begin() + end + 1);
    } else {
      std::copy(v.begin() + p + 1, v.begin() + end, v.begin() + p);
    }
  };
  if (was != now) {
    shift(active_streams_);
    shift(active_f_);
    shift(active_inv_f_);
    positive_count_[wheel] += now ? 1 : std::size_t(-1);
    total_active_ += now ? 1 : std::size_t(-1);
    if (now) {
      LRB_OBS_GAUGE_ADD("lrb_wheelset_active_items", 1);
    } else {
      LRB_OBS_GAUGE_SUB("lrb_wheelset_active_items", 1);
    }
  }
  if (now) {
    active_streams_[p] = item;
    active_f_[p] = fitness;
    active_inv_f_[p] = bid_filter::bound_reciprocal(fitness);
  }
  LRB_OBS_COUNTER_ADD("lrb_wheelset_updates_total", 1);
}

std::size_t WheelSet::prepare_batch(std::span<const DrawRequest> requests,
                                    std::size_t room) const {
  std::size_t total_draws = 0;
  for (const DrawRequest& r : requests) {
    check_wheel(r.wheel, "draw_batch");
    if (r.draws == 0) continue;
    LRB_REQUIRE(positive_count_[r.wheel] > 0, InvalidFitnessError,
                "draw_batch: " + wheel_str(r.wheel) +
                    " has no positive fitness");
    LRB_REQUIRE(r.draws <= room - total_draws, InvalidArgumentError,
                "draw_batch: the requests' draws sum past " +
                    std::to_string(room) + " (" + std::to_string(total_draws) +
                    " + " + std::to_string(r.draws) + ")");
    total_draws += r.draws;
  }
  return total_draws;
}

void WheelSet::run_batch(std::span<const DrawRequest> requests,
                         std::size_t total_draws,
                         std::vector<std::size_t>& out) {
  LRB_TRACE_SPAN_ARG("wheelset_draw_batch", total_draws);
  LRB_OBS_SCOPED_NS("lrb_wheelset_batch_ns");
  try {
    out.reserve(out.size() + total_draws);
  } catch (const std::bad_alloc&) {
    // A total that fits max_size() but not memory: typed, before any
    // cursor moves.
    throw InvalidArgumentError("draw_batch: cannot allocate the output for " +
                               std::to_string(total_draws) + " draws");
  }
  const simd::Ops& ops = simd::ops();
  if (bits_.size() != kTile) {
    bits_.resize(kTile);
    u_.resize(kTile);
    ub_.resize(kTile);
    inv_tile_.resize(kTile);
    seed_tile_.resize(kTile);
    ctr_tile_.resize(kTile);
    stream_tile_.resize(kTile);
  }
  segs_.clear();
  chunks_.clear();
  std::size_t pos = 0;          // tile fill level
  std::size_t work_items = 0;   // sum of k over all draws (obs partition)
  std::size_t log_evals = 0;
  bid_filter::RecordScan race;  // carried across tiles for an open draw

  const auto flush = [&]() {
    if (pos == 0) return;
    ops.philox_bits_keyed(seed_tile_.data(), ctr_tile_.data(),
                          stream_tile_.data(), bits_.data(), pos);
    // No per-segment maxima: the RecordScan gates every element on its
    // bound anyway, so chunk-level skips would buy nothing on the fresh
    // single-chunk races that dominate here (see segmented.hpp).
    simd::segmented_bound_pass(ops, bits_.data(), inv_tile_.data(), u_.data(),
                               ub_.data(), pos, segs_.data(), segs_.size(),
                               /*seg_max=*/nullptr);
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      const Chunk& ch = chunks_[c];
      const simd::Segment sg = segs_[c];
      if (!race.found) {
        // Fresh race: probe the strongest-bound element first — it is
        // usually the winner, so the gate starts tight and the scan skips
        // almost every other log.  Mask its bound so the scan does not pay
        // its log twice (it is already installed; the winner cannot change
        // — see RecordScan::probe).
        const double* ubs = ub_.data() + sg.begin;
        std::size_t pm = 0;
        for (std::size_t j = 1; j < sg.len; ++j) {
          if (ubs[j] > ubs[pm]) pm = j;
        }
        race.probe(u_[sg.begin + pm], active_f_[ch.active_abs + pm],
                   ch.pos0 + pm);
        ub_[sg.begin + pm] = -std::numeric_limits<double>::infinity();
      }
      race.scan(u_.data() + sg.begin, ub_.data() + sg.begin,
                active_f_.data() + ch.active_abs, ch.pos0, sg.len);
      if (ch.closes) {
        LRB_ASSERT(race.found,
                   "positive active count implies at least one bid");
        out.push_back(static_cast<std::size_t>(
            active_streams_[offsets_[ch.wheel] + race.best_pos]));
        log_evals += race.log_evals;
        race = bid_filter::RecordScan{};
      }
    }
    segs_.clear();
    chunks_.clear();
    pos = 0;
  };

  for (const DrawRequest& r : requests) {
    if (r.draws == 0) continue;
    const std::size_t w = r.wheel;
    const std::size_t abase = offsets_[w];
    const std::size_t k = positive_count_[w];
    for (std::size_t d = 0; d < r.draws; ++d) {
      const std::uint64_t t = cursors_[w]++;
      std::size_t done = 0;
      while (done < k) {
        if (pos == kTile) flush();
        const std::size_t take = std::min(k - done, kTile - pos);
        std::fill_n(seed_tile_.data() + pos, take, seeds_[w]);
        std::fill_n(ctr_tile_.data() + pos, take, t);
        std::memcpy(stream_tile_.data() + pos,
                    active_streams_.data() + abase + done,
                    take * sizeof(std::uint64_t));
        std::memcpy(inv_tile_.data() + pos, active_inv_f_.data() + abase + done,
                    take * sizeof(double));
        segs_.push_back({pos, take});
        chunks_.push_back({w, abase + done, done, done + take == k});
        pos += take;
        done += take;
      }
      work_items += k;
    }
  }
  flush();
  LRB_OBS_COUNTER_ADD("lrb_wheelset_batches_total", 1);
  LRB_OBS_COUNTER_ADD("lrb_wheelset_draws_total", total_draws);
  LRB_OBS_COUNTER_ADD("lrb_wheelset_log_evals_total", log_evals);
  LRB_OBS_COUNTER_ADD("lrb_wheelset_filter_skips_total",
                      work_items - log_evals);
  LRB_OBS_HISTOGRAM_RECORD("lrb_wheelset_batch_draws", total_draws);
}

void WheelSet::draw_batch_into(std::span<const DrawRequest> requests,
                               std::vector<std::size_t>& out) {
  // Chunks enqueue (seed_w, t, local item) key triples and each tile
  // derives its bits in ONE philox_bits_keyed sweep — identical bits to a
  // standalone DeterministicDrawKernel over every wheel.
  run_batch(requests, prepare_batch(requests, out.max_size() - out.size()),
            out);
}

std::vector<std::size_t> WheelSet::draw_batch(
    std::span<const DrawRequest> requests) {
  std::vector<std::size_t> out;
  draw_batch_into(requests, out);
  return out;
}

std::size_t WheelSet::draw_one(std::size_t wheel) {
  const DrawRequest r{wheel, 1};
  scratch_out_.clear();
  draw_batch_into({&r, 1}, scratch_out_);
  return scratch_out_.front();
}

}  // namespace lrb::core
