#include "support/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace commscope::support {

void write_file_atomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  const auto fail = [&](const char* step) {
    const int err = errno;
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    throw std::runtime_error("cannot write '" + path + "': " + step + ": " +
                             std::strerror(err));
  };
  if (fd < 0) fail("open");
  for (std::size_t done = 0; done < contents.size();) {
    const ssize_t n =
        ::write(fd, contents.data() + done, contents.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) fail("write");
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) fail("fsync");
  const int closed = ::close(fd);
  fd = -1;
  if (closed != 0) fail("close");
  if (::rename(tmp.c_str(), path.c_str()) != 0) fail("rename");
  // Sync the directory so the rename itself survives a power loss.
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(),
                         O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace commscope::support
