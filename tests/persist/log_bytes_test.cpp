// The draw-log bytes are pinned: a fixed journal script, and a writer fed
// every record kind, must leave the same file under every flush policy —
// the policy moves only when frames reach the file, never what they are.
// The digests below were recorded from a build that wrote each frame with
// its own write(2) as it was appended, before frames were coalesced.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/draw_log.hpp"
#include "persist/io.hpp"
#include "persist/journal.hpp"
#include "persist_testing.hpp"

namespace lrb::persist {
namespace {

using lrb::persist::testing::scratch_dir;
using lrb::persist::testing::seasoned_wheel_set;

/// FNV-1a, 64-bit: a stable fingerprint of a file's bytes.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Draws, updates and checkpoints through a journal, then syncs.
std::vector<std::uint8_t> journal_script_log(const std::string& dir,
                                             DrawLogConfig config) {
  WheelJournal journal = WheelJournal::create(dir, seasoned_wheel_set(), config);
  for (std::size_t t = 0; t < 60; ++t) {
    (void)journal.draw(t % 4, 1 + t % 3);
    if (t % 5 == 4) journal.update(t % 4, t % 2, 0.5 + 0.25 * (t % 7));
    if (t % 11 == 10) journal.checkpoint();
  }
  journal.sync();
  return read_file(WheelJournal::log_path(dir));
}

/// Every record kind, big and small, through a bare writer, then syncs.
std::vector<std::uint8_t> every_kind_log(const std::string& path,
                                         DrawLogConfig config) {
  {
    DrawLogWriter writer(path, config);
    for (std::uint64_t i = 0; i < 20; ++i) {
      writer.append(WheelUpdateRecord{i, 2 * i, 0.25 * static_cast<double>(i)});
      writer.append(WheelDrawRecord{i, std::vector<std::uint64_t>(i, i + 1)});
      writer.append(DistUpdateRecord{i * 7, -1.5});
      writer.append(DistDrawRecord{i * 100, {i, i + 2, i + 4}});
      writer.append(ReshardRecord{i % 5 + 1});
      writer.append(CheckpointRecord{i});
    }
    writer.sync();
  }
  return read_file(path);
}

struct Pinned {
  std::size_t bytes;
  std::uint64_t digest;
};

const Pinned kJournalLog{2941, 1189783377522775027ull};
const Pinned kEveryKindLog{4840, 10313846863097313536ull};

TEST(DrawLogBytes, EveryPolicyWritesThePinnedBytes) {
  const DrawLogConfig configs[] = {{FlushPolicy::kEveryRecord, 64},
                                   {FlushPolicy::kBatch, 5},
                                   {FlushPolicy::kNone, 64}};
  for (const DrawLogConfig& config : configs) {
    const std::string tag = std::to_string(static_cast<int>(config.policy));
    SCOPED_TRACE("policy " + tag);
    const std::vector<std::uint8_t> journal =
        journal_script_log(scratch_dir("pin_journal_" + tag), config);
    EXPECT_EQ(journal.size(), kJournalLog.bytes);
    EXPECT_EQ(fnv1a(journal), kJournalLog.digest);
    const std::vector<std::uint8_t> kinds =
        every_kind_log(scratch_dir("pin_kinds_" + tag) + "/draws.log", config);
    EXPECT_EQ(kinds.size(), kEveryKindLog.bytes);
    EXPECT_EQ(fnv1a(kinds), kEveryKindLog.digest);
  }
}

}  // namespace
}  // namespace lrb::persist
