// WheelJournal: a durable WheelSet session — one snapshot plus one
// write-ahead draw log, kept consistent so SIGKILL at ANY instant loses
// nothing that was acknowledged.
//
// Consistency scheme:
//
//   * create() truncates the log, then commits a snapshot recording
//     "0 log records applied".  Creation is a destructive begin (it
//     replaces whatever journal the directory held).
//   * Every update and draw applies to the in-memory arena, then appends
//     its record (winners included) to the log.  The log writer coalesces
//     frames and writes them at its flush policy's fsync point, so a record
//     is on disk, and acknowledged, only once an fsync covers it; a process
//     kill loses the unsynced records, which resume() handles like a torn
//     tail (the stream continues from the last record that reached disk).
//   * checkpoint() fsyncs the log, then atomically commits a fresh
//     snapshot recording "R records applied" — the log is never rewritten,
//     so there is no window where snapshot and log disagree: a crash
//     before the rename resumes from the old snapshot (re-applying the
//     tail), after it from the new one (skipping the covered prefix).
//   * resume() truncates any torn tail off the log, restores the newest
//     snapshot, re-applies the uncovered records — updates by replaying
//     them, draws by SEEKING the wheel cursor past them (the winners are
//     already known from the log; determinism makes redraws equal anyway)
//     — and returns every logged winner so a service can re-announce its
//     committed stream.
//
// The continued stream after resume() is bit-identical to one that was
// never interrupted — the CI crash job SIGKILLs `lrb record` at random
// offsets, resumes, and byte-diffs the winner stream to enforce exactly
// that.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/wheel_set.hpp"
#include "persist/draw_log.hpp"
#include "persist/snapshot.hpp"

namespace lrb::persist {

struct ResumedWheelJournal;  // defined below (holds a WheelJournal by value)

class WheelJournal {
 public:
  /// Conventional file names inside a journal directory.
  [[nodiscard]] static std::string snapshot_path(const std::string& dir) {
    return dir + "/state.snap";
  }
  [[nodiscard]] static std::string log_path(const std::string& dir) {
    return dir + "/draws.log";
  }

  /// Starts a fresh journal over `ws` in `dir` (which must exist),
  /// replacing any previous journal there.
  [[nodiscard]] static WheelJournal create(const std::string& dir,
                                           core::WheelSet ws,
                                           DrawLogConfig config = {});

  /// Restores the journal in `dir` after a crash or clean shutdown.
  [[nodiscard]] static ResumedWheelJournal resume(const std::string& dir,
                                                  DrawLogConfig config = {});

  [[nodiscard]] core::WheelSet& wheels() noexcept { return ws_; }
  [[nodiscard]] const core::WheelSet& wheels() const noexcept { return ws_; }

  /// Applies the update and logs it.
  void update(std::size_t wheel, std::size_t item, double value);

  /// Draws `draws` winners from `wheel` and logs them (one record).
  [[nodiscard]] std::vector<std::uint64_t> draw(std::size_t wheel,
                                                std::size_t draws);

  /// Forces the log durable now, regardless of flush policy.
  void sync();

  /// Commits a fresh snapshot covering every record logged so far (plus a
  /// checkpoint marker in the log) — bounds future resume work without
  /// ever rewriting the log.
  void checkpoint();

  /// Records logged so far (applied + since).
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }

 private:
  WheelJournal(std::string dir, core::WheelSet ws, DrawLogConfig config,
               std::uint64_t records);

  void commit_snapshot();

  std::string dir_;
  core::WheelSet ws_;
  DrawLogWriter log_;
  std::uint64_t records_ = 0;  ///< total records in the log
  std::vector<std::size_t> drawn_;  ///< draw()'s reused WheelSet output
};

/// What WheelJournal::resume() recovered, beyond the journal itself.
struct ResumedWheelJournal {
  WheelJournal journal;
  /// Every winner in the log, in draw order — the committed stream.
  std::vector<std::uint64_t> winners;
  bool torn_tail = false;           ///< a torn final frame was dropped
  std::uint64_t dropped_bytes = 0;  ///< size of that frame
};

}  // namespace lrb::persist
