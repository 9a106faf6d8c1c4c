#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "obs/obs.hpp"
#include "rng/seed.hpp"
#include "rng/xoshiro256.hpp"

namespace perfbench {

namespace {

std::map<std::string, std::uint64_t> obs_counters() {
  std::map<std::string, std::uint64_t> out;
#if defined(LRB_OBS_ENABLED)
  for (const auto& [name, value] :
       lrb::obs::Registry::global().snapshot().counters) {
    out[name] = value;
  }
#endif
  return out;
}

constexpr std::uint64_t kTenantLayoutSeed = 0x7e4a47;

/// Popularity rank -> wheel size (5% n=512, 25% n=64, 70% n=8).
std::size_t size_for_rank(std::size_t rank) {
  const std::size_t r = rank % 20;
  if (r == 0) return 512;
  if (r <= 5) return 64;
  return 8;
}

/// Inverse-CDF sampler of Zipf(1.0) popularity ranks 0..k-1.
class Zipf {
 public:
  explicit Zipf(std::size_t k) : cdf_(k) {
    double sum = 0.0;
    for (std::size_t r = 0; r < k; ++r) {
      sum += 1.0 / static_cast<double>(r + 1);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  template <class G>
  std::size_t operator()(G& gen) const {
    const double u = lrb::rng::u01_closed_open(gen);
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

template <class T, class G>
void shuffle(std::vector<T>& v, G& gen) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[lrb::rng::uniform_below(gen, i)]);
  }
}

}  // namespace

ObsDelta::ObsDelta() : start_(obs_counters()) {
#if defined(LRB_OBS_ENABLED)
  enabled_ = true;
#endif
}

void ObsDelta::close() {
  for (const auto& [name, value] : obs_counters()) {
    const auto it = start_.find(name);
    delta_[name] = value - (it == start_.end() ? 0 : it->second);
  }
}

std::optional<std::uint64_t> ObsDelta::get(const std::string& name) const {
  if (!enabled_) return std::nullopt;
  const auto it = delta_.find(name);
  return it == delta_.end() ? 0 : it->second;
}

void ByteSink::u64(std::uint64_t v) {
  for (int b = 0; b < 8; ++b) out_.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
}

void ByteSink::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& workdir) {
  if (name == "aco_tsp") return make_aco_workload(seed);
  if (name == "tenants") return make_tenants_workload(seed);
  if (name == "replay_1m") return make_replay_workload(seed);
  if (name == "tenants_durable") return make_durable_workload(seed, workdir);
  return nullptr;
}

TenantsInput make_tenants_input(std::size_t wheels, std::uint64_t seed) {
  const lrb::rng::SeedSequence seeds(seed);
  lrb::rng::Xoshiro256StarStar gen(seeds.child("tenants-input"));

  // Which wheel sits at each popularity rank, and so each wheel's size, is
  // the workload's shape: fixed, not drawn from the seed, so every seed
  // admits the same sizes in the same order and has the same hot wheels'
  // memory layout.  Seeds vary the values and the requests.
  std::vector<std::uint32_t> wheel_at(wheels);
  std::iota(wheel_at.begin(), wheel_at.end(), 0u);
  lrb::rng::Xoshiro256StarStar layout_gen(kTenantLayoutSeed);
  shuffle(wheel_at, layout_gen);
  std::vector<std::size_t> size(wheels);
  for (std::size_t r = 0; r < wheels; ++r) size[wheel_at[r]] = size_for_rank(r);

  TenantsInput in;
  in.offsets.assign(1, 0);
  for (std::size_t w = 0; w < wheels; ++w) {
    in.offsets.push_back(in.offsets.back() + size[w]);
  }
  // Per wheel, its items in random order: the first half start at zero,
  // the second half start positive.
  std::vector<std::uint32_t> order(in.offsets.back());
  in.values.assign(in.offsets.back(), 0.0);
  for (std::size_t w = 0; w < wheels; ++w) {
    std::vector<std::uint32_t> items(size[w]);
    std::iota(items.begin(), items.end(), 0u);
    shuffle(items, gen);
    std::copy(items.begin(), items.end(), order.begin() + in.offsets[w]);
    for (std::size_t j = size[w] / 2; j < size[w]; ++j) {
      in.values[in.offsets[w] + items[j]] = heavy_tailed(gen);
    }
  }

  const Zipf zipf(wheels);
  in.pool.resize(kTenantPoolOps);
  for (TenantOp& op : in.pool) {
    op.updates.resize(kTenantUpdates);
    for (std::size_t u = 0; u < kTenantUpdates; ++u) {
      const std::uint32_t w = wheel_at[zipf(gen)];
      const std::size_t half = size[w] / 2;
      const bool flip = u % 4 == 0;
      const std::size_t j =
          (flip ? 0 : half) + lrb::rng::uniform_below(gen, half);
      op.updates[u] =
          TenantUpdate{w, order[in.offsets[w] + j], heavy_tailed(gen), flip};
    }
    const std::size_t entries = kTenantEntries - kTenantUpdates;
    op.draws.resize(entries);
    op.first_winner.resize(entries);
    for (std::size_t e = 0; e < entries; ++e) {
      op.draws[e] = {wheel_at[zipf(gen)],
                     1 + static_cast<std::size_t>(lrb::rng::uniform_below(gen, 4))};
      op.first_winner[e] = op.winners;
      op.winners += op.draws[e].draws;
    }
  }
  return in;
}

void TenantsInput::dump(std::size_t ops, std::vector<std::uint8_t>& out) const {
  ByteSink sink(out);
  for (std::size_t off : offsets) sink.u64(off);
  for (double v : values) sink.f64(v);
  for (std::size_t i = 0; i < ops; ++i) {
    for (const TenantUpdate& u : op(i).updates) {
      sink.u64(u.wheel);
      sink.u64(u.item);
      sink.f64(u.value);
      sink.u64(u.flip);
    }
    for (const auto& d : op(i).draws) {
      sink.u64(d.wheel);
      sink.u64(d.draws);
    }
  }
}

lrb::core::WheelSet make_arena(const TenantsInput& in, std::uint64_t seed) {
  lrb::core::WheelSet ws(lrb::rng::SeedSequence(seed).child("arena"));
  for (std::size_t w = 0; w < in.wheels(); ++w) {
    ws.add_wheel(std::span<const double>(in.values.data() + in.offsets[w],
                                         in.offsets[w + 1] - in.offsets[w]));
  }
  return ws;
}

}  // namespace perfbench
