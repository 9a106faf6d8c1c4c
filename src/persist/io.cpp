#include "persist/io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace lrb::persist {

namespace {

[[noreturn]] void io_fail(const std::string& op, const std::string& path) {
  // Capture errno before any allocation can clobber it.
  const int err = errno;
  throw PersistIoError(op + " \"" + path + "\": " + std::strerror(err));
}

/// The directory component of `path` ("." when there is none) — what must
/// be fsynced after a rename to make the new name durable.
std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

File::~File() { close(); }

File File::open_read(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) io_fail("open", path);
  return File(fd, path);
}

File File::create_truncate(const std::string& path) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) io_fail("create", path);
  return File(fd, path);
}

File File::open_append(const std::string& path) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) io_fail("open for append", path);
  return File(fd, path);
}

void File::write_all(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_fail("write", path_);
    }
    LRB_OBS_COUNTER_ADD("lrb_persist_writes_total", 1);
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

void File::sync() {
  LRB_OBS_SCOPED_NS("lrb_persist_fsync_ns");
  if (::fsync(fd_) != 0) io_fail("fsync", path_);
  LRB_OBS_COUNTER_ADD("lrb_persist_fsyncs_total", 1);
}

void File::truncate(std::uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    io_fail("ftruncate", path_);
  }
}

std::uint64_t File::size() const {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) io_fail("fstat", path_);
  return static_cast<std::uint64_t>(st.st_size);
}

void File::close() {
  if (fd_ >= 0) {
    // Close errors are unreportable from a destructor; writers that need
    // durability have already fsynced.
    ::close(fd_);
    fd_ = -1;
  }
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) io_fail("open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    io_fail("fstat", path);
  }
  std::vector<std::uint8_t> out(static_cast<std::size_t>(st.st_size));
  std::size_t pos = 0;
  while (pos < out.size()) {
    const ssize_t n = ::read(fd, out.data() + pos, out.size() - pos);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      io_fail("read", path);
    }
    // EOF before the fstat size: a concurrent truncate shrank the file;
    // return what was actually read.
    if (n == 0) break;
    pos += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(pos);
  return out;
}

void atomic_write_file(const std::string& path,
                       std::span<const std::uint8_t> data) {
  const std::string tmp = path + ".tmp";
  {
    File f = File::create_truncate(tmp);
    f.write_all(data);
    f.sync();
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) io_fail("rename", tmp);
  // Make the rename itself durable: fsync the containing directory.
  const std::string dir = parent_dir(path);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) io_fail("open directory", dir);
  const int rc = ::fsync(dfd);
  ::close(dfd);
  if (rc != 0) io_fail("fsync directory", dir);
  LRB_OBS_COUNTER_ADD("lrb_persist_fsyncs_total", 2);
}

}  // namespace lrb::persist
