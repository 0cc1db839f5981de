#include "resilience/crash_guard.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>

namespace commscope::resilience {

namespace {

// Process-global state the handler may touch: plain/atomic PODs only.
constexpr std::size_t kMaxPath = 1024;
char g_dump_path[kMaxPath] = {0};
std::atomic<bool> g_in_handler{false};
struct sigaction g_prev[3];
constexpr int kSignals[3] = {SIGSEGV, SIGABRT, SIGINT};

// Set by arm(); the handler reads through this raw pointer so it never has
// to run the instance() accessor (no construction inside the handler).
CrashGuard* g_guard = nullptr;

/// True when all `len` bytes were written.
bool write_all(int fd, const char* data, std::size_t len) noexcept {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n <= 0) return false;  // best effort; nothing more to do in a handler
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Writes a string literal to stderr.
template <std::size_t N>
void say(const char (&msg)[N]) noexcept {
  write_all(2, msg, N - 1);
}

}  // namespace

CrashGuard& CrashGuard::instance() {
  static CrashGuard guard;
  return guard;
}

bool CrashGuard::dump_view_to(const char* path, View v) noexcept {
  if (v.data == nullptr || v.len == 0 || path[0] == '\0') return false;
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool written = write_all(fd, v.data, v.len);
  return ::close(fd) == 0 && written;
}

bool CrashGuard::has_dump_path() const noexcept {
  return armed() && g_dump_path[0] != '\0';
}

bool CrashGuard::dump_current() noexcept {
  const View* v = current_.load(std::memory_order_acquire);
  return v != nullptr && dump_view_to(g_dump_path, *v);
}

void CrashGuard::handler(int sig) {
  // A crash inside the handler (or a second signal) must not recurse.
  if (g_in_handler.exchange(true)) _exit(128 + sig);
  if (g_guard != nullptr && g_guard->dump_current()) {
    say("commscope: fatal signal; emergency snapshot written\n");
  } else {
    say("commscope: fatal signal; no snapshot saved\n");
  }
  _exit(128 + sig);
}

void CrashGuard::arm(const std::string& path) {
  if (path.size() + 1 > kMaxPath) {
    throw std::invalid_argument("crash guard: dump path too long");
  }
  std::memcpy(g_dump_path, path.c_str(), path.size() + 1);
  g_guard = this;

  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = &CrashGuard::handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    ::sigaction(kSignals[i], &sa, &g_prev[i]);
  }
  armed_.store(true, std::memory_order_release);
}

void CrashGuard::disarm() {
  if (!armed_.exchange(false)) return;
  for (std::size_t i = 0; i < 3; ++i) {
    ::sigaction(kSignals[i], &g_prev[i], nullptr);
  }
  cancel_watchdog();
}

void CrashGuard::publish(std::string snapshot) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  const int slot = next_buffer_;
  next_buffer_ = 1 - next_buffer_;
  buffers_[slot] = std::move(snapshot);
  views_[slot] = View{buffers_[slot].data(), buffers_[slot].size()};
  // The handler sees either the old complete view or the new complete view.
  current_.store(&views_[slot], std::memory_order_release);
}

void CrashGuard::start_watchdog(double seconds) {
  cancel_watchdog();
  std::lock_guard<std::mutex> lock(watchdog_mu_);
  watchdog_cancel_ = false;
  const std::uint64_t generation = ++watchdog_generation_;
  watchdog_ = std::thread([this, seconds, generation] {
    std::unique_lock<std::mutex> lk(watchdog_mu_);
    const bool cancelled = watchdog_cv_.wait_for(
        lk, std::chrono::duration<double>(seconds), [this, generation] {
          return watchdog_cancel_ || watchdog_generation_ != generation;
        });
    if (cancelled) return;
    if (dump_current()) {
      say("commscope: watchdog timeout; snapshot written\n");
    } else {
      say("commscope: watchdog timeout; no snapshot saved\n");
    }
    _exit(124);
  });
}

void CrashGuard::cancel_watchdog() {
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_cancel_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

}  // namespace commscope::resilience
