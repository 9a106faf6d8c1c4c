// POSIX file plumbing for lrb::persist: RAII descriptors, fsync with
// latency accounting, and the atomic-commit idiom snapshots rely on.
//
// Crash-safety contract of atomic_write_file():
//
//   write(path.tmp) -> fsync(path.tmp) -> rename(tmp, path) -> fsync(dir)
//
// rename(2) is atomic on POSIX filesystems, so at every instant `path`
// either does not exist, holds the complete previous snapshot, or holds
// the complete new one — a reader can never observe a half-written file.
// The directory fsync makes the rename itself durable (without it a crash
// can resurrect the old name).  The CI crash job SIGKILLs writers at
// randomized offsets to hold this to account.
//
// Everything throws PersistIoError (with errno text) on failure; nothing
// here interprets the bytes — framing and verification live in
// snapshot.hpp / draw_log.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace lrb::persist {

/// A movable RAII file descriptor.
class File {
 public:
  File() = default;
  File(File&& other) noexcept : fd_(other.fd_), path_(std::move(other.path_)) {
    other.fd_ = -1;
  }
  File& operator=(File&& other) noexcept;
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File();

  /// Opens for reading; throws PersistIoError if the file cannot be opened.
  [[nodiscard]] static File open_read(const std::string& path);

  /// Creates (or truncates) for writing.
  [[nodiscard]] static File create_truncate(const std::string& path);

  /// Opens (creating if absent) in append mode — every write lands at the
  /// current end of file, the mode the DrawLog writer requires.
  [[nodiscard]] static File open_append(const std::string& path);

  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Writes all of `data` (looping over short writes).  Each write(2) call
  /// is counted (lrb_persist_writes_total).
  void write_all(std::span<const std::uint8_t> data);

  /// fsync(2) — blocks until the kernel reports the data durable.  Counted
  /// and latency-tracked (lrb_persist_fsyncs_total / lrb_persist_fsync_ns).
  void sync();

  /// Truncates the file to `size` bytes (torn-tail recovery).
  void truncate(std::uint64_t size);

  [[nodiscard]] std::uint64_t size() const;

  void close();

 private:
  File(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

/// True when `path` exists (any file type).
[[nodiscard]] bool file_exists(const std::string& path);

/// Reads a whole file into memory.  Throws PersistIoError when the file is
/// missing or unreadable.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

/// The atomic-commit idiom: writes `data` to `path + ".tmp"`, fsyncs it,
/// renames over `path`, and fsyncs the parent directory.  After return the
/// bytes are durable under the final name; a crash at any earlier instant
/// leaves the previous contents of `path` (or its absence) intact.
void atomic_write_file(const std::string& path,
                       std::span<const std::uint8_t> data);

}  // namespace lrb::persist
