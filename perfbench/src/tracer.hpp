// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps each call it makes into a layer's public functions in
// a span.  Spans nest on one thread; when a span ends its duration is
// known, and its parent (the span below it on the stack) learns how much of
// its own interval the child covered — so per-name call counts, total time
// and SELF time (total minus the children's share) are aggregated online,
// with no post-processing pass.  The first `max_events` spans are also kept
// as events and written out as Chrome-trace JSON, which Perfetto
// (ui.perfetto.dev) and chrome://tracing load directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  struct Stat {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  /// RAII span: begins on construction, ends on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, std::uint64_t items = 0)
        : tracer_(tracer) {
      tracer_.begin(name, items);
    }
    ~Scope() { tracer_.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
  };

  /// `track` names the Perfetto track (one per workload); `max_events`
  /// bounds the events kept for the trace file, not the aggregates.
  explicit Tracer(std::string track, std::size_t max_events = 50000);

  /// `name` must have static storage (a string literal): its address is
  /// the lookup key on the hot path.
  void begin(std::string_view name, std::uint64_t items = 0);
  void end();
  /// Tags the following spans with a request id (spans of one op share it).
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  /// Aggregate of every span named `name` so far (zeros when none ran).
  [[nodiscard]] Stat stat(std::string_view name) const;
  /// All aggregates, in first-seen order.
  [[nodiscard]] std::vector<std::pair<std::string, Stat>> stats() const;

  /// Writes every tracer's kept events as one Chrome-trace JSON file, one
  /// track per tracer; `metadata` (a JSON object) goes in "otherData".
  /// Returns false when the file cannot be written.
  static bool write_chrome_trace(const std::string& path,
                                 const std::vector<const Tracer*>& tracers,
                                 const std::string& metadata);

 private:
  struct Frame {
    std::uint32_t name = 0;
    std::uint64_t start = 0;
    std::uint64_t child_ns = 0;
    std::uint64_t items = 0;
  };
  struct Event {
    std::uint32_t name = 0;
    std::uint32_t parent = 0;  // name id of the enclosing span, or kNoParent
    std::uint64_t op = 0;
    std::uint64_t start = 0;
    std::uint64_t dur = 0;
    std::uint64_t items = 0;
  };
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  std::uint32_t intern(std::string_view name);

  std::string track_;
  std::size_t max_events_;
  std::uint64_t op_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<std::string> names_;
  std::unordered_map<const char*, std::uint32_t> by_ptr_;
  std::vector<Stat> stats_;
  std::vector<Frame> stack_;
  std::vector<Event> events_;
};

}  // namespace perfbench
