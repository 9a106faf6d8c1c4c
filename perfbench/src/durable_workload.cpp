// tenants_durable: the tenants generator over 10,000 wheels, served through
// a persist::WheelJournal with FlushPolicy::kNone and one sync() per op — a
// group fsync per request batch; an op is acknowledged when sync() returns.
//
// Every kSegmentOps ops the journal is audited and rotated: persist::replay
// re-executes its snapshot + log and must report clean(), then the arena
// moves on into a fresh journal.  Rotating keeps the audit's memory and the
// log's disk use bounded however long the run.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>

#include "persist/journal.hpp"
#include "persist/replay.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using lrb::persist::WheelJournal;

constexpr std::size_t kWheels = 10000;
constexpr std::size_t kWarmupOps = 4;
constexpr std::size_t kSegmentOps = 256;

class DurableWorkload final : public Workload {
 public:
  DurableWorkload(std::uint64_t seed, const std::string& workdir)
      : seed_(seed), root_(fs::path(workdir) / unique_name()) {}

  ~DurableWorkload() override {
    journal_.reset();
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  DurableWorkload(const DurableWorkload&) = delete;
  DurableWorkload& operator=(const DurableWorkload&) = delete;

  void setup() override {
    in_ = make_tenants_input(kWheels, seed_);
    fs::remove_all(root_);
    open_segment(make_arena(in_, seed_));
    for (std::size_t i = 0; i < kWarmupOps; ++i) (void)run_op(i);
  }

  OpResult run_op(std::size_t i) override {
    const TenantOp& op = in_.op(i);
    for (const TenantUpdate& u : op.updates) {
      journal_->update(u.wheel, u.item,
                       resolve(u, journal_->wheels().value(u.wheel, u.item)));
    }
    std::size_t winners = 0;
    for (const auto& d : op.draws) {
      winners += journal_->draw(d.wheel, d.draws).size();
    }
    journal_->sync();
    ++segment_ops_;
    return {winners, winners == op.winners};
  }

  OpResult run_traced_op(std::size_t i, Tracer& t) override {
    const TenantOp& op = in_.op(i);
    const std::string log = WheelJournal::log_path(dir_.string());
    const std::uintmax_t before = fs::file_size(log);
    t.set_op(i);
    std::size_t winners = 0;
    {
      Tracer::Scope s(t, "tenants_durable.op", op.winners);
      for (const TenantUpdate& u : op.updates) {
        const double v = resolve(u, journal_->wheels().value(u.wheel, u.item));
        Tracer::Scope us(t, "persist.update");
        journal_->update(u.wheel, u.item, v);
      }
      for (const auto& d : op.draws) {
        Tracer::Scope ds(t, "persist.draw", d.draws);
        winners += journal_->draw(d.wheel, d.draws).size();
      }
      Tracer::Scope ss(t, "persist.sync");
      journal_->sync();
    }
    log_bytes_ += fs::file_size(log) - before;
    traced_draws_ += winners;
    ++segment_ops_;
    return {winners, winners == op.winners};
  }

  std::size_t check_op(std::size_t) override {
    if (segment_ops_ < kSegmentOps) return 0;
    const std::size_t failed = audit();
    lrb::core::WheelSet ws = std::move(journal_->wheels());
    journal_.reset();
    fs::remove_all(dir_);
    open_segment(std::move(ws));
    return failed;
  }

  std::size_t finish() override { return audit(); }

  void layer_metrics(const Tracer& t, const ObsDelta&,
                     Metrics& out) const override {
    const auto per_call_us = [&](const char* name) {
      const Tracer::Stat s = t.stat(name);
      return s.total_ns / 1e3 / static_cast<double>(s.calls);
    };
    out.push_back({"persist.draw_record_us", per_call_us("persist.draw"), "us"});
    out.push_back(
        {"persist.update_record_us", per_call_us("persist.update"), "us"});
    out.push_back({"persist.sync_us", per_call_us("persist.sync"), "us"});
    out.push_back({"persist.log_bytes_per_draw",
                   static_cast<double>(log_bytes_) / traced_draws_, "B"});
    std::vector<double> creates = create_s_;
    std::sort(creates.begin(), creates.end());
    out.push_back({"persist.create_s", creates[creates.size() / 2], "s"});
  }

  void dump_requests(std::size_t ops,
                     std::vector<std::uint8_t>& out) const override {
    make_tenants_input(kWheels, seed_).dump(ops, out);
  }

 private:
  static std::string unique_name() {
    static int instances = 0;
    return "journal-" + std::to_string(instances++);
  }

  void open_segment(lrb::core::WheelSet ws) {
    dir_ = root_ / ("seg-" + std::to_string(segments_++));
    fs::create_directories(dir_);
    const std::uint64_t t0 = now_ns();
    journal_.emplace(WheelJournal::create(
        dir_.string(), std::move(ws),
        lrb::persist::DrawLogConfig{lrb::persist::FlushPolicy::kNone, 64}));
    create_s_.push_back((now_ns() - t0) / 1e9);
    segment_ops_ = 0;
  }

  /// Replays the current segment; every op in it fails if it is not clean.
  std::size_t audit() {
    journal_->sync();
    const lrb::persist::ReplayReport report =
        lrb::persist::replay(WheelJournal::snapshot_path(dir_.string()),
                             WheelJournal::log_path(dir_.string()));
    return report.clean() && !report.torn_tail ? 0 : segment_ops_;
  }

  std::uint64_t seed_;
  fs::path root_;
  fs::path dir_;
  TenantsInput in_;
  std::optional<WheelJournal> journal_;
  std::size_t segments_ = 0;
  std::size_t segment_ops_ = 0;
  std::vector<double> create_s_;
  std::uint64_t log_bytes_ = 0;
  std::uint64_t traced_draws_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_durable_workload(std::uint64_t seed,
                                                const std::string& workdir) {
  return std::make_unique<DurableWorkload>(seed, workdir);
}

}  // namespace perfbench
