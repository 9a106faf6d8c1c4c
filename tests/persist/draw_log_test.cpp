// DrawLog framing: append/read round trips, flush policies, torn-tail
// tolerance and recovery, and the typed-error contract for CRC-clean but
// malformed payloads.
#include "persist/draw_log.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "persist/crc32c.hpp"
#include "persist_testing.hpp"

#if defined(LRB_OBS_ENABLED)
#include "obs/registry.hpp"
#endif

namespace lrb::persist {
namespace {

using lrb::persist::testing::scratch_dir;

std::vector<Record> sample_records() {
  return {
      WheelUpdateRecord{3, 14, 2.5},
      WheelDrawRecord{1, {0, 7, 7, 2}},
      DistUpdateRecord{42, 0.0},
      DistDrawRecord{100, {5, 5, 11}},
      ReshardRecord{6},
      CheckpointRecord{5},
      WheelDrawRecord{0, {}},  // zero-draw record: empty winners are legal
  };
}

/// Records carry no operator==; their canonical encoding is the identity.
void expect_same_records(const std::vector<Record>& got,
                         const std::vector<Record>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(encode_record(got[i]), encode_record(want[i])) << "record " << i;
  }
}

constexpr FlushPolicy kPolicies[] = {FlushPolicy::kEveryRecord,
                                     FlushPolicy::kBatch, FlushPolicy::kNone};

std::string policy_name(FlushPolicy policy) {
  switch (policy) {
    case FlushPolicy::kEveryRecord:
      return "every";
    case FlushPolicy::kBatch:
      return "batch";
    case FlushPolicy::kNone:
      return "none";
  }
  return "?";
}

DrawLogConfig config_for(FlushPolicy policy, std::size_t batch_records = 3) {
  DrawLogConfig config;
  config.policy = policy;
  config.batch_records = batch_records;
  return config;
}

std::uint64_t file_bytes(const std::string& path) {
  return std::filesystem::exists(path) ? std::filesystem::file_size(path) : 0;
}

void append_bytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

TEST(DrawLog, AppendReadRoundTripEveryKind) {
  const std::string path = scratch_dir("roundtrip") + "/draws.log";
  const auto records = sample_records();
  {
    DrawLogWriter writer(path);
    for (const Record& r : records) writer.append(r);
  }
  const DrawLogReadResult got = read_draw_log(path);
  EXPECT_FALSE(got.torn_tail);
  EXPECT_EQ(got.dropped_bytes(), 0u);
  EXPECT_EQ(got.valid_bytes, got.total_bytes);
  expect_same_records(got.records, records);
}

TEST(DrawLog, EveryFlushPolicyPersistsEverything) {
  for (const auto policy :
       {FlushPolicy::kEveryRecord, FlushPolicy::kBatch, FlushPolicy::kNone}) {
    const std::string path =
        scratch_dir("policy" + std::to_string(static_cast<int>(policy))) +
        "/draws.log";
    {
      DrawLogConfig config;
      config.policy = policy;
      config.batch_records = 3;
      DrawLogWriter writer(path, config);
      for (const Record& r : sample_records()) writer.append(r);
      writer.sync();
    }
    expect_same_records(read_draw_log(path).records, sample_records());
  }
}

TEST(DrawLog, MissingFileReadsAsEmpty) {
  const DrawLogReadResult got =
      read_draw_log(scratch_dir("missing") + "/never-written.log");
  EXPECT_TRUE(got.records.empty());
  EXPECT_FALSE(got.torn_tail);
  EXPECT_EQ(got.total_bytes, 0u);
}

TEST(DrawLog, AppendsAccumulateAcrossWriterLifetimes) {
  const std::string path = scratch_dir("reopen") + "/draws.log";
  {
    DrawLogWriter writer(path);
    writer.append(WheelUpdateRecord{0, 0, 1.0});
  }
  {
    DrawLogWriter writer(path);
    writer.append(CheckpointRecord{1});
  }
  EXPECT_EQ(read_draw_log(path).records.size(), 2u);
}

TEST(DrawLog, TornTailIsDroppedNotFatal) {
  const std::string path = scratch_dir("torn") + "/draws.log";
  {
    DrawLogWriter writer(path);
    for (const Record& r : sample_records()) writer.append(r);
  }
  const std::uint64_t clean_bytes = read_draw_log(path).total_bytes;
  // A partial frame: a plausible header promising more bytes than exist.
  append_bytes(path, {0x40, 0x00, 0x00, 0x00, 0xAA, 0xBB, 0xCC, 0xDD, 0x01});

  const DrawLogReadResult got = read_draw_log(path);
  EXPECT_TRUE(got.torn_tail);
  EXPECT_EQ(got.valid_bytes, clean_bytes);
  EXPECT_EQ(got.dropped_bytes(), 9u);
  expect_same_records(got.records, sample_records());

  EXPECT_EQ(recover_truncate(path), 9u);
  const DrawLogReadResult after = read_draw_log(path);
  EXPECT_FALSE(after.torn_tail);
  EXPECT_EQ(after.total_bytes, clean_bytes);
  // Idempotent: a clean log recovers zero bytes.
  EXPECT_EQ(recover_truncate(path), 0u);
}

TEST(DrawLog, AppendAfterRecoveryContinuesTheLog) {
  const std::string path = scratch_dir("resume") + "/draws.log";
  {
    DrawLogWriter writer(path);
    writer.append(WheelDrawRecord{2, {9, 9}});
  }
  append_bytes(path, {0x01, 0x02, 0x03});  // torn garbage
  (void)recover_truncate(path);
  {
    DrawLogWriter writer(path);
    writer.append(WheelDrawRecord{2, {4}});
  }
  const DrawLogReadResult got = read_draw_log(path);
  EXPECT_FALSE(got.torn_tail);
  expect_same_records(
      got.records, {WheelDrawRecord{2, {9, 9}}, WheelDrawRecord{2, {4}}});
}

TEST(DrawLog, OversizedLengthFieldIsTornNotAllocated) {
  const std::string path = scratch_dir("oversize") + "/draws.log";
  // Header claiming a payload beyond kMaxRecordBytes (and beyond the file).
  append_bytes(path, {0xFF, 0xFF, 0xFF, 0x7F, 0x00, 0x00, 0x00, 0x00});
  const DrawLogReadResult got = read_draw_log(path);
  EXPECT_TRUE(got.records.empty());
  EXPECT_TRUE(got.torn_tail);
  EXPECT_EQ(got.dropped_bytes(), 8u);
}

TEST(DrawLog, CrcCleanMalformedPayloadThrowsTyped) {
  const std::string path = scratch_dir("malformed") + "/draws.log";
  // A correctly framed payload with an unknown kind byte: framing cannot
  // explain this, so it is corruption, not a torn tail.
  const std::vector<std::uint8_t> payload = {0x77};
  std::vector<std::uint8_t> frame = {
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  const std::uint32_t crc = crc32c(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i) {
    frame[4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  frame.push_back(payload[0]);
  append_bytes(path, frame);
  EXPECT_THROW((void)read_draw_log(path), CorruptLogError);
}

TEST(DrawLog, DecodeRecordRejectsTrailingBytes) {
  std::vector<std::uint8_t> bytes = encode_record(CheckpointRecord{3});
  bytes.push_back(0x00);
  EXPECT_THROW((void)decode_record(bytes), CorruptLogError);
}

TEST(DrawLog, DecodeRecordRejectsOverclaimedWinnerCount) {
  // A draw record whose winner count exceeds the bytes present must be
  // rejected before any allocation sized from the claim.
  std::vector<std::uint8_t> bytes = encode_record(WheelDrawRecord{1, {5}});
  // winner count lives after kind(1) + wheel(8); bump it to a huge value.
  bytes[9] = 0xFF;
  bytes[10] = 0xFF;
  bytes[11] = 0xFF;
  EXPECT_THROW((void)decode_record(bytes), CorruptLogError);
}

TEST(DrawLog, WriterDestroyedWithoutSyncLeavesEveryRecordReadable) {
  for (const FlushPolicy policy : kPolicies) {
    const std::string path =
        scratch_dir("nosync_" + policy_name(policy)) + "/draws.log";
    {
      DrawLogWriter writer(path, config_for(policy));
      for (const Record& r : sample_records()) writer.append(r);
    }
    const DrawLogReadResult got = read_draw_log(path);
    EXPECT_FALSE(got.torn_tail) << policy_name(policy);
    expect_same_records(got.records, sample_records());
  }
}

TEST(DrawLog, MoveAssignmentFlushesTheReplacedWriter) {
  const std::string dir = scratch_dir("move_assign");
  {
    DrawLogWriter a(dir + "/a.log", config_for(FlushPolicy::kNone));
    DrawLogWriter b(dir + "/b.log", config_for(FlushPolicy::kNone));
    a.append(CheckpointRecord{1});
    b.append(CheckpointRecord{2});
    a = std::move(b);
    a.append(CheckpointRecord{3});
  }
  expect_same_records(read_draw_log(dir + "/a.log").records,
                      {CheckpointRecord{1}});
  expect_same_records(read_draw_log(dir + "/b.log").records,
                      {CheckpointRecord{2}, CheckpointRecord{3}});
}

TEST(DrawLog, UnsyncedFramesReachTheFileAtTheFlushPoint) {
  // kNone: nothing is written until sync() ...
  const std::string path = scratch_dir("coalesce") + "/draws.log";
  DrawLogWriter writer(path, config_for(FlushPolicy::kNone));
  for (const Record& r : sample_records()) writer.append(r);
  EXPECT_EQ(file_bytes(path), 0u);
  writer.sync();
  const std::uint64_t synced = file_bytes(path);
  EXPECT_GT(synced, 0u);
  expect_same_records(read_draw_log(path).records, sample_records());
  // ... unless the pending frames pass kPendingFlushBytes, which writes
  // them (a whole number of frames) without waiting for sync().
  const WheelDrawRecord big{1, std::vector<std::uint64_t>(1000, 7)};
  std::size_t appended = 0;
  while (file_bytes(path) == synced) {
    writer.append(big);
    ++appended;
    ASSERT_LE(appended * 8000, 2 * kPendingFlushBytes);
  }
  EXPECT_GE(file_bytes(path) - synced, kPendingFlushBytes);
  const DrawLogReadResult mid = read_draw_log(path);
  EXPECT_FALSE(mid.torn_tail);
  EXPECT_EQ(mid.records.size(), sample_records().size() + appended);
}

TEST(DrawLog, AFailedWritePoisonsTheWriter) {
  // /dev/full takes the open and fails every write with ENOSPC.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  for (const FlushPolicy policy : kPolicies) {
    SCOPED_TRACE(policy_name(policy));
    DrawLogWriter writer("/dev/full", config_for(policy));
    // The first write happens at the policy's flush point.
    std::size_t appends = 0;
    std::string first;
    try {
      for (; appends < 3; ++appends) writer.append(CheckpointRecord{appends});
      writer.sync();
      FAIL() << "a write to /dev/full succeeded";
    } catch (const PersistIoError& e) {
      first = e.what();
    }
    EXPECT_EQ(appends, policy == FlushPolicy::kEveryRecord ? 0u
                       : policy == FlushPolicy::kBatch     ? 2u
                                                           : 3u);
    // Every later call refuses, naming the first failure.
    for (int i = 0; i < 2; ++i) {
      try {
        writer.append(CheckpointRecord{9});
        FAIL() << "append after a failed write";
      } catch (const PersistIoError& e) {
        EXPECT_NE(std::string(e.what()).find(first), std::string::npos)
            << e.what();
      }
      try {
        writer.sync();
        FAIL() << "sync after a failed write";
      } catch (const PersistIoError& e) {
        EXPECT_NE(std::string(e.what()).find(first), std::string::npos)
            << e.what();
      }
    }
  }
}

#if defined(LRB_OBS_ENABLED)

std::uint64_t counter(const char* name) {
  return lrb::obs::Registry::global().counter(name).value();
}

/// write(2) and fsync(2) calls made by `body`.
template <class F>
std::pair<std::uint64_t, std::uint64_t> writes_and_fsyncs(F&& body) {
  const std::uint64_t w0 = counter("lrb_persist_writes_total");
  const std::uint64_t f0 = counter("lrb_persist_fsyncs_total");
  body();
  return {counter("lrb_persist_writes_total") - w0,
          counter("lrb_persist_fsyncs_total") - f0};
}

TEST(DrawLogCounters, NoneWritesOncePerSyncBelowTheBound) {
  const std::string path = scratch_dir("c_none") + "/draws.log";
  DrawLogWriter writer(path, config_for(FlushPolicy::kNone));
  for (int round = 0; round < 3; ++round) {
    const auto [writes, fsyncs] = writes_and_fsyncs([&] {
      for (int i = 0; i < 50; ++i) writer.append(WheelDrawRecord{1, {2, 3}});
      writer.sync();
    });
    EXPECT_EQ(writes, 1u);
    EXPECT_EQ(fsyncs, 1u);
  }
  // Past kPendingFlushBytes the buffer is written before sync().
  const WheelDrawRecord big{1, std::vector<std::uint64_t>(1000, 7)};
  const auto [writes, fsyncs] = writes_and_fsyncs([&] {
    for (int i = 0; i < 20; ++i) writer.append(big);  // ~160 KB
    writer.sync();
  });
  EXPECT_GE(writes, 3u);
  EXPECT_EQ(fsyncs, 1u);
}

TEST(DrawLogCounters, BatchWritesAndFsyncsOncePerBatch) {
  const std::string path = scratch_dir("c_batch") + "/draws.log";
  DrawLogWriter writer(path, config_for(FlushPolicy::kBatch, 3));
  const auto [writes, fsyncs] = writes_and_fsyncs([&] {
    for (std::uint64_t i = 0; i < 9; ++i) writer.append(CheckpointRecord{i});
  });
  EXPECT_EQ(writes, 3u);
  EXPECT_EQ(fsyncs, 3u);
}

TEST(DrawLogCounters, EveryRecordWritesAndFsyncsEachRecord) {
  const std::string path = scratch_dir("c_every") + "/draws.log";
  DrawLogWriter writer(path, config_for(FlushPolicy::kEveryRecord));
  const auto [writes, fsyncs] = writes_and_fsyncs([&] {
    for (const Record& r : sample_records()) writer.append(r);
  });
  EXPECT_EQ(writes, sample_records().size());
  EXPECT_EQ(fsyncs, sample_records().size());
}

#endif  // LRB_OBS_ENABLED

}  // namespace
}  // namespace lrb::persist
