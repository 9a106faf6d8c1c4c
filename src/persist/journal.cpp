#include "persist/journal.hpp"

#include <utility>
#include <variant>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace lrb::persist {

WheelJournal::WheelJournal(std::string dir, core::WheelSet ws,
                           DrawLogConfig config, std::uint64_t records)
    : dir_(std::move(dir)),
      ws_(std::move(ws)),
      log_(log_path(dir_), config),
      records_(records) {}

WheelJournal WheelJournal::create(const std::string& dir, core::WheelSet ws,
                                  DrawLogConfig config) {
  // Truncate the log BEFORE committing the snapshot: a crash between the
  // two leaves an empty log and the previous snapshot — a stale but
  // consistent journal, never a fresh snapshot over stale records.
  {
    File f = File::create_truncate(log_path(dir));
    f.sync();
  }
  WheelJournal j(dir, std::move(ws), config, 0);
  j.commit_snapshot();
  return j;
}

ResumedWheelJournal WheelJournal::resume(const std::string& dir,
                                         DrawLogConfig config) {
  const std::uint64_t dropped = recover_truncate(log_path(dir));
  const Snapshot snap = Snapshot::read(snapshot_path(dir));
  core::WheelSet ws = snap.wheel_set();
  const std::uint64_t applied =
      snap.has(SectionId::kJournalHeader) ? snap.journal_header() : 0;

  const DrawLogReadResult log = read_draw_log(log_path(dir));
  if (applied > log.records.size()) {
    throw CorruptSnapshotError(
        "journal resume: snapshot claims " + std::to_string(applied) +
        " applied records but the log holds only " +
        std::to_string(log.records.size()));
  }

  std::vector<std::uint64_t> winners;
  for (std::size_t i = 0; i < log.records.size(); ++i) {
    const Record& record = log.records[i];
    const bool apply = i >= applied;
    if (const auto* up = std::get_if<WheelUpdateRecord>(&record)) {
      if (apply) ws.update(up->wheel, up->item, up->value);
    } else if (const auto* draw = std::get_if<WheelDrawRecord>(&record)) {
      if (apply) {
        // The winners are already committed in the log; only the cursor
        // state needs to catch up — seek past the logged draws (replaying
        // them would produce the identical winners, by determinism, at
        // O(k) per draw instead of O(1)).
        ws.seek(draw->wheel,
                ws.cursor(draw->wheel) + draw->winners.size());
      }
      winners.insert(winners.end(), draw->winners.begin(),
                     draw->winners.end());
    } else if (std::holds_alternative<CheckpointRecord>(record)) {
      // Marker only.
    } else {
      throw CorruptLogError(
          "journal resume: the log contains a distributed record but the "
          "journal holds WheelSet state — these files are not a pair");
    }
  }

  ResumedWheelJournal out{
      WheelJournal(dir, std::move(ws), config, log.records.size()),
      std::move(winners), dropped > 0, dropped};
  return out;
}

void WheelJournal::update(std::size_t wheel, std::size_t item, double value) {
  ws_.update(wheel, item, value);
  log_.append(WheelUpdateRecord{wheel, item, value});
  ++records_;
}

std::vector<std::uint64_t> WheelJournal::draw(std::size_t wheel,
                                              std::size_t draws) {
  const core::WheelSet::DrawRequest req{wheel, draws};
  drawn_.clear();
  ws_.draw_batch_into({&req, 1}, drawn_);
  // Built in place inside the Record, so the winners vector — the one
  // allocation of a warm call — is also the one returned.
  Record record{std::in_place_type<WheelDrawRecord>};
  auto& rec = std::get<WheelDrawRecord>(record);
  rec.wheel = wheel;
  rec.winners.assign(drawn_.begin(), drawn_.end());
  log_.append(record);
  ++records_;
  return std::move(rec.winners);
}

void WheelJournal::sync() { log_.sync(); }

void WheelJournal::checkpoint() {
  // Order matters: every record the snapshot will claim as applied must be
  // durable before the snapshot commits (else a crash could leave a
  // snapshot referencing records the log never got).
  log_.append(CheckpointRecord{records_});
  ++records_;
  log_.sync();
  commit_snapshot();
}

void WheelJournal::commit_snapshot() {
  Snapshot snap;
  snap.put_wheel_set(ws_);
  snap.put_journal_header(records_);
  snap.write(snapshot_path(dir_));
}

}  // namespace lrb::persist
