// WheelSet: a multi-tenant selection arena — millions of small wheels
// through one batched pass.
//
// Real heavy-traffic selection workloads (ad auctions, per-user
// recommendation wheels, load balancers) are millions of SMALL fitness
// vectors, not one n=1e6 wheel.  A loop of batch_select_deterministic()
// calls over K tenants pays, per tenant, a full validation pass, three
// vector allocations, kernel setup, and a SIMD ramp that never reaches full
// lane occupancy when n is 8..64 — per-call overhead dominates the argmax
// itself.  WheelSet amortizes all of it across tenants:
//
//   * structure-of-arrays storage: all K wheels' fitness concatenated into
//     one arena with per-wheel offsets, plus per-wheel seed / draw-cursor /
//     positive-count state — admission cost is paid once per tenant, not
//     once per draw.  No per-wheel sum is kept: bidding needs none, so the
//     state is the values, the seeds and the cursors;
//   * packed active sets (positive-fitness item index, fitness, cached 1/f)
//     kept current per wheel, sorted by local index: a re-weight patches its
//     slot in place and a membership flip (zero <-> positive) shifts the
//     wheel's O(k_w) tail within its own segment, so draws only read them;
//   * one batched draw API: a request vector {(wheel, draws)} routes through
//     a SINGLE validation sweep and a tiled Philox-fill + segmented
//     bound-pass (simd/segmented.hpp) that concatenates many wheels' bid
//     streams into dense tiles — the vector kernels see full blocks even
//     when every wheel is 8 items wide.
//
// Determinism contract: wheel w draws bit-identically to a standalone
// batch_select_deterministic(wheel_values(w), m, seed(w)) — the per-item
// Philox streams are keyed (seed_w, t, LOCAL item index), seeds derive from
// the arena seed via rng::wheel_seed, and every SIMD stage is elementwise,
// so neither the batching, the tile boundaries, nor neighboring tenants'
// traffic can change a single winner (tests/core/wheel_set_test.cpp,
// tests/core/wheel_set_isolation_test.cpp).
//
// Draws advance per-wheel cursors and share tile scratch: external
// synchronization is required, one arena per service shard.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "simd/segmented.hpp"

namespace lrb::persist {
struct WheelSetAccess;  // snapshot serializer (persist/snapshot.cpp)
}

namespace lrb::core {

class WheelSet {
 public:
  /// One entry of a batched draw request: `draws` consecutive draws from
  /// `wheel`.  Requests are served in order; repeating a wheel within one
  /// batch continues its cursor exactly as two back-to-back batches would.
  struct DrawRequest {
    std::size_t wheel = 0;
    std::size_t draws = 0;
  };

  explicit WheelSet(std::uint64_t set_seed = 0) noexcept : set_seed_(set_seed) {
    offsets_.push_back(0);
  }

  // The arena is move-only: wheels are cheap to add, the arena itself is
  // hundreds of MB at production K, and the occupancy gauges below track
  // one owner per arena.
  WheelSet(const WheelSet&) = delete;
  WheelSet& operator=(const WheelSet&) = delete;
  WheelSet(WheelSet&& other) noexcept;
  WheelSet& operator=(WheelSet&& other) noexcept;
  ~WheelSet();

  /// Admits a wheel with a derived seed (rng::wheel_seed(set_seed, id)).
  /// Validates like every selector (finite, non-negative, named index+value
  /// on failure); an all-zero wheel is legal at admission — tenants fill in
  /// via update() — but drawing from it throws.  Returns the wheel id.
  std::size_t add_wheel(std::span<const double> fitness);
  /// Same, with an explicit per-wheel seed (tenant-owned replay streams).
  std::size_t add_wheel(std::span<const double> fitness, std::uint64_t seed);

  [[nodiscard]] std::size_t wheels() const noexcept {
    return offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t total_items() const noexcept {
    return values_.size();
  }
  /// Total positive-fitness items across all wheels (the occupancy gauge).
  [[nodiscard]] std::size_t total_active() const noexcept {
    return total_active_;
  }
  [[nodiscard]] std::size_t size(std::size_t wheel) const {
    check_wheel(wheel, "size");
    return offsets_[wheel + 1] - offsets_[wheel];
  }
  [[nodiscard]] std::span<const double> wheel_values(std::size_t wheel) const {
    check_wheel(wheel, "wheel_values");
    return {values_.data() + offsets_[wheel],
            offsets_[wheel + 1] - offsets_[wheel]};
  }
  [[nodiscard]] double value(std::size_t wheel, std::size_t item) const {
    check_item(wheel, item, "value");
    return values_[offsets_[wheel] + item];
  }
  /// Number of positive-fitness items ("k" in the paper's Theorem 1).
  [[nodiscard]] std::size_t active_count(std::size_t wheel) const {
    check_wheel(wheel, "active_count");
    return positive_count_[wheel];
  }
  [[nodiscard]] std::uint64_t seed(std::size_t wheel) const {
    check_wheel(wheel, "seed");
    return seeds_[wheel];
  }
  /// Next draw id of the wheel's deterministic stream (replay checkpoint:
  /// the whole arena resumes from K (seed, cursor) pairs).
  [[nodiscard]] std::uint64_t cursor(std::size_t wheel) const {
    check_wheel(wheel, "cursor");
    return cursors_[wheel];
  }
  /// Positions one wheel's deterministic stream at an absolute draw id.
  void seek(std::size_t wheel, std::uint64_t draw_id) {
    check_wheel(wheel, "seek");
    cursors_[wheel] = draw_id;
  }

  /// Point update.  A re-weight patches the packed active arrays in place
  /// (O(log k_w) slot search); a zero <-> positive flip inserts or erases
  /// the slot with an O(k_w) shift inside the wheel's segment.  Never
  /// allocates.
  void update(std::size_t wheel, std::size_t item, double fitness);

  /// Batched deterministic draws: ONE validation sweep over the request
  /// vector, then one tiled Philox-fill + segmented bound-pass across all
  /// wheels.  Returns the winners (LOCAL item indices) in request order and
  /// advances each wheel's cursor by its draw count.  Bit-identical to
  /// calling batch_select_deterministic(wheel_values(w), draws, seed(w))
  /// per wheel (with cursors starting at 0) on every dispatch target.  A
  /// draw total past the output's room, or one whose output cannot be
  /// allocated, throws InvalidArgumentError naming the draws before any
  /// cursor moves.
  [[nodiscard]] std::vector<std::size_t> draw_batch(
      std::span<const DrawRequest> requests);
  void draw_batch_into(std::span<const DrawRequest> requests,
                       std::vector<std::size_t>& out);

  /// One deterministic draw from one wheel (request-queue convenience).
  [[nodiscard]] std::size_t draw_one(std::size_t wheel);

 private:
  // The checkpoint layer (persist/snapshot.cpp) reads the fields verbatim
  // and reconstructs arenas field by field, re-packing the active sets
  // with rebuild_active.
  friend struct lrb::persist::WheelSetAccess;

  /// Tile capacity: 4 x 16 KiB scratch, L2-resident; big enough to amortize
  /// the two dispatched calls per tile across ~256 eight-item wheels.
  static constexpr std::size_t kTile = 2048;

  /// One ragged slice of a draw inside the tile (parallel to segs_): which
  /// wheel, where its chunk starts in the active arrays (absolute) and in
  /// the wheel's active set (relative), and whether it completes its draw.
  struct Chunk {
    std::size_t wheel = 0;
    std::size_t active_abs = 0;
    std::size_t pos0 = 0;
    bool closes = false;
  };

  void check_wheel(std::size_t wheel, const char* what) const;
  void check_item(std::size_t wheel, std::size_t item, const char* what) const;
  /// Packs one wheel's active arrays afresh from values_ (admission and
  /// restore; update() keeps them current after that).
  void rebuild_active(std::size_t wheel);
  /// The single per-batch validation sweep: wheel ids in range, every
  /// drawn-from wheel has a positive entry, and the draws sum to at most
  /// `room` (the output's free capacity) without wrapping.  Returns the
  /// total draw count; nothing has moved when it throws.
  std::size_t prepare_batch(std::span<const DrawRequest> requests,
                            std::size_t room) const;
  void release_gauges() noexcept;

  /// The batched draw engine.  Chunks are packed into dense tiles: each
  /// chunk enqueues per-element Philox keys (seed_w broadcast, the draw's
  /// cursor t broadcast, LOCAL item streams), and each full tile runs ONE
  /// philox_bits_keyed call — full vector lanes even when every wheel is 8
  /// items wide — then ONE segmented bits -> (0,1] + bound sweep
  /// (simd/segmented.hpp).  The shared filtered argmax
  /// (bid_filter::RecordScan) resolves each chunk, carrying the race of a
  /// draw that straddles a tile boundary.  Each draw consumes one cursor
  /// tick of its wheel.
  void run_batch(std::span<const DrawRequest> requests,
                 std::size_t total_draws, std::vector<std::size_t>& out);

  std::uint64_t set_seed_ = 0;
  std::vector<std::size_t> offsets_;  // K+1 item offsets into the arena
  std::vector<double> values_;        // all wheels' fitness, concatenated
  std::vector<std::uint64_t> seeds_;  // per-wheel Philox keys
  std::vector<std::uint64_t> cursors_;        // per-wheel next draw id
  std::vector<std::size_t> positive_count_;   // per-wheel active item count
  // Packed active sets: wheel w's positive items occupy the prefix
  // [offsets_[w], offsets_[w] + positive_count_[w]) of these arrays, in
  // ascending item order.  The stream ids are LOCAL item indices — exactly
  // the (seed_w, t, i) keying a standalone kernel over wheel_values(w) uses.
  std::vector<std::uint64_t> active_streams_;
  std::vector<double> active_f_;
  std::vector<double> active_inv_f_;
  std::size_t total_active_ = 0;

  // Batch scratch (reused across batches; sized on first draw).  The three
  // key tiles mirror bits_ element for element: one philox_bits_keyed call
  // per tile turns them into bid bits.
  std::vector<std::uint64_t> seed_tile_;
  std::vector<std::uint64_t> ctr_tile_;
  std::vector<std::uint64_t> stream_tile_;
  std::vector<std::uint64_t> bits_;
  std::vector<double> u_;
  std::vector<double> ub_;
  std::vector<double> inv_tile_;
  std::vector<simd::Segment> segs_;
  std::vector<Chunk> chunks_;
  std::vector<std::size_t> scratch_out_;
};

}  // namespace lrb::core
