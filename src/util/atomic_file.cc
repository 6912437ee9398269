#include "util/atomic_file.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include <cstdint>

namespace coskq {

namespace {

/// Best-effort fsync of the directory holding `path`, so a completed rename
/// survives a crash.
void SyncParentDirectory(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0              ? "/"
                                                    : path.substr(0, slash);
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    (void)fsync(fd);
    close(fd);
  }
}

}  // namespace

bool WriteFully(int fd, const void* data, size_t len) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = write(fd, bytes, len);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    bytes += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

Status WriteFileAtomically(const std::string& path,
                           const std::function<bool(int fd)>& fill) {
  const std::string tmp = path + ".tmp." + std::to_string(getpid());
  const int fd = open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                      0644);
  if (fd < 0) {
    return Status::IoError("cannot create " + tmp + ": " + strerror(errno));
  }
  const bool written = fill(fd) && fsync(fd) == 0;
  const int write_errno = errno;
  close(fd);
  if (!written) {
    unlink(tmp.c_str());
    return Status::IoError("short write: " + tmp + ": " +
                           strerror(write_errno));
  }
  if (rename(tmp.c_str(), path.c_str()) != 0) {
    const int rename_errno = errno;
    unlink(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " to " + path + ": " +
                           strerror(rename_errno));
  }
  SyncParentDirectory(path);
  return Status::OK();
}

Status WriteFileAtomically(const std::string& path,
                           std::string_view contents) {
  return WriteFileAtomically(path, [contents](int fd) {
    return WriteFully(fd, contents.data(), contents.size());
  });
}

}  // namespace coskq
