#include "tracer.hpp"

#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

Tracer::Tracer(std::string track, std::size_t max_events)
    : track_(std::move(track)), max_events_(max_events) {
  events_.reserve(max_events_);
}

std::uint32_t Tracer::intern(std::string_view name) {
  // Span names are string literals, so the pointer is a stable fast key;
  // equal text behind a different pointer still maps to the same id.
  const auto hit = by_ptr_.find(name.data());
  if (hit != by_ptr_.end()) return hit->second;
  std::uint32_t id = 0;
  while (id < names_.size() && names_[id] != name) ++id;
  if (id == names_.size()) {
    names_.emplace_back(name);
    stats_.emplace_back();
  }
  by_ptr_.emplace(name.data(), id);
  return id;
}

void Tracer::begin(std::string_view name, std::uint64_t items) {
  const std::uint32_t id = intern(name);
  stack_.push_back(Frame{id, now_ns(), 0, items});
}

void Tracer::end() {
  const std::uint64_t stop = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = stop - f.start;
  Stat& s = stats_[f.name];
  s.calls += 1;
  s.total_ns += dur;
  s.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
  const std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back().name;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (events_.size() < max_events_) {
    events_.push_back(Event{f.name, parent, op_, f.start, dur, f.items});
  } else {
    ++dropped_;
  }
}

Tracer::Stat Tracer::stat(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return stats_[i];
  }
  return Stat{};
}

std::vector<std::pair<std::string, Tracer::Stat>> Tracer::stats() const {
  std::vector<std::pair<std::string, Stat>> out;
  out.reserve(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    out.emplace_back(names_[i], stats_[i]);
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::vector<const Tracer*>& tracers,
                                const std::string& metadata) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  std::uint64_t origin = ~std::uint64_t{0};
  for (const Tracer* t : tracers) {
    if (!t->events_.empty() && t->events_.front().start < origin) {
      origin = t->events_.front().start;
    }
  }
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":" << metadata
      << ",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&]() {
    if (!first) out << ",\n";
    first = false;
  };
  char buf[64];
  for (std::size_t tid = 0; tid < tracers.size(); ++tid) {
    const Tracer& t = *tracers[tid];
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << t.track_ << "\"}}";
    for (const Event& e : t.events_) {
      sep();
      // Timestamps are microseconds with ns resolution kept as decimals.
      std::snprintf(buf, sizeof buf, "%.3f", (e.start - origin) / 1e3);
      out << "{\"name\":\"" << t.names_[e.name]
          << "\",\"cat\":\"lrb\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << buf;
      std::snprintf(buf, sizeof buf, "%.3f", e.dur / 1e3);
      out << ",\"dur\":" << buf << ",\"args\":{\"op\":" << e.op;
      if (e.parent != kNoParent) {
        out << ",\"parent\":\"" << t.names_[e.parent] << "\"";
      }
      if (e.items != 0) out << ",\"items\":" << e.items;
      out << "}}";
    }
    if (t.dropped_ != 0) {
      sep();
      out << "{\"name\":\"events_not_kept\",\"ph\":\"i\",\"s\":\"t\","
             "\"pid\":1,\"tid\":"
          << tid << ",\"ts\":0,\"args\":{\"count\":" << t.dropped_ << "}}";
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
