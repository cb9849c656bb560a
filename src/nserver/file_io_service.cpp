#include "nserver/file_io_service.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

namespace cops::nserver {

namespace {
std::function<void(const std::string&)>& pre_open_hook() {
  static std::function<void(const std::string&)> hook;
  return hook;
}
}  // namespace

void FileIoService::set_test_pre_open_hook(
    std::function<void(const std::string&)> hook) {
  pre_open_hook() = std::move(hook);
}

FileData::~FileData() {
  if (fd >= 0) ::close(fd);
}

FileIoService::FileIoService(size_t threads) : pool_(threads) {}

FileIoService::~FileIoService() { stop(); }

void FileIoService::stop() {
  pool_.stop();
}

size_t FileIoService::pending() const {
  return pool_.queue_depth();
}

Result<FileDataPtr> FileIoService::read_file(const std::string& path) {
  return load_file(path, FileLoadOptions{});
}

Result<FileDataPtr> FileIoService::load_file(const std::string& path,
                                             const FileLoadOptions& load) {
  // TOCTOU-safe: open the descriptor first and derive *everything* —
  // existence, type, size, mtime, bytes — from that one descriptor.  The
  // old stat-then-open shape could serve file B's bytes with file A's
  // size/mtime when the path was swapped between the two calls.
  if (pre_open_hook()) pre_open_hook()(path);
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT || errno == ENOTDIR) return Status::not_found(path);
    return Status::from_errno("open");
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::from_errno("fstat");
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::invalid_argument(path + " is not a regular file");
  }
  auto data = std::make_shared<FileData>();
  data->path = path;
  data->mtime_seconds = static_cast<int64_t>(st.st_mtime);
  if (load.open_for_sendfile &&
      static_cast<size_t>(st.st_size) >= load.sendfile_min_bytes) {
    // sendfile-eligible: hand back the open descriptor, no bytes in memory.
    data->fd = fd;
    data->fd_size = static_cast<uint64_t>(st.st_size);
    return FileDataPtr(std::move(data));
  }
  data->bytes.resize(static_cast<size_t>(st.st_size));
  size_t off = 0;
  while (off < data->bytes.size()) {
    const ssize_t n =
        ::read(fd, data->bytes.data() + off, data->bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::from_errno("read");
    }
    if (n == 0) {
      ::close(fd);
      return Status::io_error("short read on " + path);
    }
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  return FileDataPtr(std::move(data));
}

void FileIoService::async_read(std::string path, CompletionToken token,
                               FileCallback callback,
                               CompletionExecutor executor) {
  async_load(std::move(path), FileLoadOptions{}, token, std::move(callback),
             std::move(executor));
}

void FileIoService::async_load(std::string path, FileLoadOptions load,
                               CompletionToken token, FileCallback callback,
                               CompletionExecutor executor) {
  (void)token;  // carried by the caller's closure; see header
  pool_.submit([this, path = std::move(path), load,
                callback = std::move(callback),
                executor = std::move(executor)]() mutable {
    auto result = load_file(path, load);
    completed_.fetch_add(1, std::memory_order_relaxed);
    executor([callback = std::move(callback), result = std::move(result)] {
      callback(result);
    });
  });
}

}  // namespace cops::nserver
