#ifndef COSKQ_UTIL_ATOMIC_FILE_H_
#define COSKQ_UTIL_ATOMIC_FILE_H_

#include <stddef.h>

#include <functional>
#include <string>
#include <string_view>

#include "util/status.h"

namespace coskq {

/// Replaces the file at `path` atomically. `fill` writes the new contents
/// into a private temp file `<path>.tmp.<pid>` (created O_EXCL, so a temp
/// file another writer left behind is never reused) and returns false with
/// errno set on a failed write. The temp file is then fsync'd and renamed
/// over `path`, and the directory is fsync'd (best effort), so `path`
/// always names either the old complete file or the new one, and a process
/// that has the old file mapped keeps reading its intact inode. On any
/// failure the temp file is removed, `path` is untouched and the result is
/// an IoError.
Status WriteFileAtomically(const std::string& path,
                           const std::function<bool(int fd)>& fill);

/// As above, with the whole contents in memory.
Status WriteFileAtomically(const std::string& path,
                           std::string_view contents);

/// write(2) until all `len` bytes are written; false (errno set) on error.
bool WriteFully(int fd, const void* data, size_t len);

}  // namespace coskq

#endif  // COSKQ_UTIL_ATOMIC_FILE_H_
