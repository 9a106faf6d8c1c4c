// Steady-state heap allocations of the journal path, counted by replacing
// the global operator new/delete for this test binary.  Once its pending
// buffer is warm, DrawLogWriter::append encodes in place and makes none
// under the policies that do not write per record; WheelJournal::draw
// makes exactly one, the winners vector it returns.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/draw_log.hpp"
#include "persist/journal.hpp"
#include "persist_testing.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

/// Heap allocations made by `body`.
template <class F>
std::size_t allocations_in(F&& body) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

}  // namespace

// The replaceable forms that the plain and array new-expressions use, with
// every matching delete, so each allocation is paired with free().
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace lrb::persist {
namespace {

using lrb::persist::testing::scratch_dir;
using lrb::persist::testing::seasoned_wheel_set;

TEST(JournalAllocations, WarmAppendAllocatesNothing) {
  for (const FlushPolicy policy : {FlushPolicy::kBatch, FlushPolicy::kNone}) {
    SCOPED_TRACE(static_cast<int>(policy));
    const std::string path = scratch_dir("alloc_append_" +
                                         std::to_string(static_cast<int>(
                                             policy))) +
                             "/draws.log";
    DrawLogWriter writer(path, DrawLogConfig{policy, 16});
    const Record draw = WheelDrawRecord{3, {1, 4, 1, 5}};
    const Record update = WheelUpdateRecord{3, 2, 0.5};
    const auto batch = [&] {
      for (int i = 0; i < 48; ++i) writer.append(i % 8 == 7 ? update : draw);
      writer.sync();
    };
    batch();  // warm: the pending buffer reaches its working size
    batch();
    EXPECT_EQ(allocations_in([&] {
                for (int b = 0; b < 10; ++b) batch();
              }),
              0u);
  }
}

TEST(JournalAllocations, DrawAllocatesOnlyTheReturnedWinners) {
  const std::string dir = scratch_dir("alloc_journal");
  WheelJournal journal = WheelJournal::create(
      dir, seasoned_wheel_set(), DrawLogConfig{FlushPolicy::kNone, 64});
  const auto batch = [&] {
    for (std::size_t w = 0; w < journal.wheels().wheels(); ++w) {
      (void)journal.draw(w, 1 + w);
    }
    journal.update(1, 2, 0.75);
    journal.sync();
  };
  batch();
  batch();
  for (int b = 0; b < 10; ++b) {
    std::size_t winners = 0;
    EXPECT_EQ(allocations_in([&] { winners = journal.draw(b % 4, 3).size(); }),
              1u);
    EXPECT_EQ(winners, 3u);
    EXPECT_EQ(allocations_in([&] {
                journal.update(1, 2, 0.5 + 0.125 * b);
                journal.sync();
              }),
              0u);
  }
}

}  // namespace
}  // namespace lrb::persist
