// Ablation A3 — engine throughput: raw 64-bit generation, canonical
// uniforms, and full bid generation per engine (the paper used the Mersenne
// Twister; xoshiro256** is the library default).  The SimdPhilox rows time
// the dispatched Philox kernels per target, in their callers' shapes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "rng/engines.hpp"
#include "simd/dispatch.hpp"

namespace {

template <typename Engine>
void BM_RawU64(benchmark::State& state) {
  Engine gen(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen());
  }
  state.SetItemsProcessed(state.iterations());
}

template <typename Engine>
void BM_CanonicalDouble(benchmark::State& state) {
  Engine gen(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrb::rng::u01_closed_open(gen));
  }
  state.SetItemsProcessed(state.iterations());
}

template <typename Engine>
void BM_LogBid(benchmark::State& state) {
  Engine gen(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrb::rng::log_bid(gen, 3.0));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_PhiloxStateless(benchmark::State& state) {
  std::uint64_t counter = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrb::rng::philox_u64_at(42, counter++, 7));
  }
  state.SetItemsProcessed(state.iterations());
}

// Full-width 64-bit words, so both dwords of every key word are live.
std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t seed) {
  lrb::rng::SplitMix64 mix(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = mix();
  return v;
}

// DeterministicBidder's shape: one draw counter over a 25,000-stream active
// set, in its 256-item blocks.
void BM_SimdPhiloxStreams(benchmark::State& state, const lrb::simd::Ops* ops) {
  constexpr std::size_t kActive = 25000;
  constexpr std::size_t kBlock = 256;
  std::vector<std::uint64_t> streams(kActive), bits(kActive);
  for (std::size_t i = 0; i < kActive; ++i) streams[i] = 40 * i + 3;
  std::uint64_t counter = 0;
  for (auto _ : state) {
    for (std::size_t start = 0; start < kActive; start += kBlock) {
      const std::size_t len = std::min(kBlock, kActive - start);
      ops->philox_bits_streams(0x5eed, counter, streams.data() + start,
                               bits.data() + start, len);
    }
    ++counter;
    benchmark::DoNotOptimize(bits.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kActive);
}

// WheelSet's shape: one 2,048-item tile with per-item seed, counter, stream.
void BM_SimdPhiloxKeyed(benchmark::State& state, const lrb::simd::Ops* ops) {
  constexpr std::size_t kTile = 2048;
  const std::vector<std::uint64_t> seeds = random_words(kTile, 1);
  std::vector<std::uint64_t> counters = random_words(kTile, 2);
  const std::vector<std::uint64_t> streams = random_words(kTile, 3);
  std::vector<std::uint64_t> bits(kTile);
  for (auto _ : state) {
    ops->philox_bits_keyed(seeds.data(), counters.data(), streams.data(),
                           bits.data(), kTile);
    ++counters[0];
    benchmark::DoNotOptimize(bits.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kTile);
}

// The PhiloxRng bulk fill: 2,048 consecutive blocks (4,096 words) per call.
void BM_SimdPhiloxCounterRange(benchmark::State& state,
                               const lrb::simd::Ops* ops) {
  constexpr std::size_t kBlocks = 2048;
  std::vector<std::uint64_t> words(2 * kBlocks);
  std::uint64_t counter0 = 0;
  for (auto _ : state) {
    ops->philox_words_counter_range(0x5eed, 7, counter0, words.data(),
                                    kBlocks);
    counter0 += kBlocks;
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBlocks);
}

BENCHMARK(BM_RawU64<lrb::rng::Xoshiro256StarStar>)->Name("RawU64/xoshiro256**");
BENCHMARK(BM_RawU64<lrb::rng::Mt19937_64>)->Name("RawU64/mt19937_64");
BENCHMARK(BM_RawU64<lrb::rng::SplitMix64>)->Name("RawU64/splitmix64");
BENCHMARK(BM_RawU64<lrb::rng::PhiloxRng>)->Name("RawU64/philox4x32-10");
BENCHMARK(BM_PhiloxStateless)->Name("RawU64/philox-stateless");

BENCHMARK(BM_CanonicalDouble<lrb::rng::Xoshiro256StarStar>)
    ->Name("U01/xoshiro256**");
BENCHMARK(BM_CanonicalDouble<lrb::rng::Mt19937_64>)->Name("U01/mt19937_64");

BENCHMARK(BM_LogBid<lrb::rng::Xoshiro256StarStar>)->Name("LogBid/xoshiro256**");
BENCHMARK(BM_LogBid<lrb::rng::Mt19937_64>)->Name("LogBid/mt19937_64");
BENCHMARK(BM_LogBid<lrb::rng::SplitMix64>)->Name("LogBid/splitmix64");
BENCHMARK(BM_LogBid<lrb::rng::PhiloxRng>)->Name("LogBid/philox4x32-10");

// One row per kernel and per target this host runs, e.g.
// SimdPhilox/streams/avx512; targets the host lacks get no row.
const bool kSimdPhiloxRowsRegistered = [] {
  using lrb::simd::Target;
  for (Target target : {Target::kScalar, Target::kAvx2, Target::kAvx512}) {
    const lrb::simd::Ops* ops = lrb::simd::ops_for(target);
    if (ops == nullptr) continue;
    const std::string isa = ops->name;
    benchmark::RegisterBenchmark(("SimdPhilox/streams/" + isa).c_str(),
                                 BM_SimdPhiloxStreams, ops);
    benchmark::RegisterBenchmark(("SimdPhilox/keyed/" + isa).c_str(),
                                 BM_SimdPhiloxKeyed, ops);
    benchmark::RegisterBenchmark(("SimdPhilox/counter_range/" + isa).c_str(),
                                 BM_SimdPhiloxCounterRange, ops);
  }
  return true;
}();

}  // namespace

BENCHMARK_MAIN();
