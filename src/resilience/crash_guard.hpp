// Emergency-dump signal handling and the wall-clock watchdog.
//
// The async-signal-safety problem: a SIGSEGV handler may not allocate, lock,
// or walk the region tree, so it cannot serialize a checkpoint. CrashGuard
// inverts the flow — the GuardedSink periodically serializes a snapshot on a
// normal thread and *publishes* the finished bytes here; the handler's only
// job is open() + write() + _exit(128+sig), all async-signal-safe. The dump
// is therefore as fresh as the last publish, never torn, and costs the hot
// path nothing.
//
// The watchdog covers hangs the same way: after --timeout=SEC of wall clock
// it writes the last published snapshot and exits 124 (the `timeout(1)`
// convention), so even a deadlocked run leaves a resumable artifact.
//
// Armed with an empty path (a --timeout run without --checkpoint), the
// guard still exits 124 / 128+sig, but has nowhere to dump: publishers skip
// serializing (has_dump_path()), and the exit message says no snapshot was
// saved instead of claiming one.
//
// One instance per process (signal handlers are process-global state).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace commscope::resilience {

class CrashGuard {
 public:
  static CrashGuard& instance();

  CrashGuard(const CrashGuard&) = delete;
  CrashGuard& operator=(const CrashGuard&) = delete;

  /// Installs SIGSEGV/SIGABRT/SIGINT handlers that write the last published
  /// snapshot to `path` and _exit(128+sig). The path is captured into a
  /// fixed buffer now (the handler cannot touch std::string); overlong paths
  /// throw std::invalid_argument.
  void arm(const std::string& path);

  /// Restores the previous signal dispositions and stops the watchdog.
  void disarm();

  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_acquire);
  }

  /// Armed with a non-empty dump path: a published snapshot can be saved.
  /// Publishers check this before serializing one.
  [[nodiscard]] bool has_dump_path() const noexcept;

  /// Publishes a fully serialized snapshot for the handler/watchdog to dump.
  /// Double-buffered: the handler reads whichever buffer was last made
  /// current via an atomic pointer, so a publish racing a crash yields the
  /// previous complete snapshot, never a torn one.
  void publish(std::string snapshot);

  /// Starts (or re-arms) the watchdog: after `seconds` of wall clock, dump
  /// the last published snapshot and _exit(124).
  void start_watchdog(double seconds);

  /// Stops the watchdog without dumping (normal completion).
  void cancel_watchdog();

 private:
  CrashGuard() = default;

  /// What the signal handler is allowed to see: a pointer to immutable,
  /// fully written bytes.
  struct View {
    const char* data = nullptr;
    std::size_t len = 0;
  };

  static void handler(int sig);
  /// Writes `v` to `path`; true only when every byte reached the file.
  static bool dump_view_to(const char* path, View v) noexcept;
  /// Dumps the last published view to the dump path; true only when a
  /// snapshot was saved. Async-signal-safe.
  bool dump_current() noexcept;

  std::atomic<bool> armed_{false};

  // Double buffer + atomic view pointer. buffers_ are only written under
  // publish_mu_; the handler only ever dereferences current_.
  std::mutex publish_mu_;
  std::string buffers_[2];
  int next_buffer_ = 0;
  View views_[2];
  std::atomic<const View*> current_{nullptr};

  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  std::thread watchdog_;
  bool watchdog_cancel_ = false;
  std::uint64_t watchdog_generation_ = 0;
};

}  // namespace commscope::resilience
