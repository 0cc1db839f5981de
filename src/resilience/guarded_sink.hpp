// GuardedSink — the mechanism that makes resilience policy safe to apply.
//
// Wraps a core::Profiler behind the AccessSink interface and adds, on the
// event path:
//   * an event clock that says when maintenance is due (below),
//   * fault-injection hooks (kill/stall after event N),
//   * ResourceGuard checks, executed under a stop-the-world safepoint so
//     ladder rungs can replace live backend/matrix structures,
//   * periodic checkpoint serialization, published to the CrashGuard for
//     emergency dumps and written crash-safely to --checkpoint=FILE.
//
// The safepoint protocol is Dekker-style: each thread marks a padded
// per-thread slot active before touching the profiler and checks the pause
// flag; the maintenance thread sets pause and waits for every slot to drain.
// On Linux the expensive half of the Dekker handshake is made asymmetric
// with sys_membarrier(PRIVATE_EXPEDITED): the per-access side is a relaxed
// store plus a compiler barrier, and the (rare) stop-the-world side pays the
// kernel-mediated fence for everyone. Elsewhere both sides use seq_cst.
//
// The event index that checkpoints, budgets, degradations and faults speak
// in is the profiler's access count (loop events and suppressed or dropped
// accesses are not events), read with the world stopped and every batch
// drained, so a checkpoint's index is the accesses it covers. Whether a
// mark is due is decided by a per-OS-thread clock (tick()): exact when one
// OS thread drives the sink; at T threads a mark fires up to T * stride
// accesses late, and an exiting thread's unpublished ticks are lost, which
// shifts only when later marks fire. The recorded index stays exact.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "core/profiler.hpp"
#include "instrument/sink.hpp"
#include "resilience/crash_guard.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/resource_guard.hpp"

namespace commscope::resilience {

class GuardedSink final : public instrument::AccessSink {
 public:
  struct Options {
    std::uint64_t checkpoint_every = 0;  ///< events between snapshots; 0 = off
    std::string checkpoint_path;         ///< empty = no checkpoint file
  };

  /// `guard`, `injector` and `crash` are optional (may be null) and, like
  /// `profiler`, must outlive the sink. When `crash` is armed with a dump
  /// path, an initial (empty) snapshot is published immediately so even a
  /// crash before the first periodic checkpoint dumps something loadable.
  /// Snapshots are serialized only when a checkpoint path or a dump path
  /// can take them. The sink is gated (safepoint and event clock) when the
  /// guard is enabled, a checkpoint cadence is set or an injector is
  /// attached; otherwise it passes events straight to the profiler.
  GuardedSink(core::Profiler& profiler, ResourceGuard* guard, Options options,
              FaultInjector* injector = nullptr, CrashGuard* crash = nullptr);
  ~GuardedSink() override;

  // --- AccessSink ----------------------------------------------------------
  void on_thread_begin(int tid) override;
  void on_loop_enter(int tid, instrument::LoopId id) override;
  void on_loop_exit(int tid) override;
  void on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                 instrument::AccessKind kind) override;
  void finalize() override;
  /// Drains `tid`'s micro-batch through the same reentrancy guard and
  /// safepoint the access path uses. Never suppressed and never ticks the
  /// clock: the buffered accesses ticked when they were admitted, so a drain
  /// is pure delivery, not a new event.
  void on_drain(int tid) override;

  /// Best-effort flush: serialize the current profiler state and hand it to
  /// the CrashGuard's dump path and the checkpoint file, where set. Runs under
  /// the maintenance lock and, when the safepoint protocol is active, under
  /// a stopped world. flush_active() runs it at exit() and before fork(), so
  /// buffered state survives either mid-phase.
  void flush() noexcept;

  /// The exit and fork handler (atexit, pthread_atfork prepare), installed
  /// once by the first sink: flushes the most recently constructed live
  /// sink. A flush that re-enters it on the same thread (an exit() from
  /// inside the flush) returns at once instead of recursing.
  static void flush_active() noexcept;

  /// Access events dropped because the event budget was exhausted: the sum
  /// of the per-tid counts in the safepoint slots.
  [[nodiscard]] std::uint64_t suppressed() const noexcept;
  /// Checkpoint files successfully written.
  [[nodiscard]] std::uint64_t checkpoints_written() const noexcept {
    return checkpoints_written_;
  }
  /// Access events dropped because they re-entered the sink from inside the
  /// instrumentation runtime (e.g. an instrumented allocator called from a
  /// profiler data structure). Dropping breaks the recursion; the count is
  /// the provenance.
  [[nodiscard]] std::uint64_t reentrant_drops() const noexcept {
    return reentrant_drops_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint32_t> active{0};
    /// Accesses of this tid the event budget dropped. Only the thread
    /// driving the tid writes it (a load and a store); suppressed() sums.
    std::atomic<std::uint64_t> suppressed{0};
  };

  /// A due mark that is never reached.
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// Runs one profiler call for `tid`, inside its safepoint slot when gated.
  /// A tid the profiler drops takes no slot: it would share a live one.
  template <class Call>
  void deliver(int tid, Call&& call);
  /// Ticks the calling thread's clock after one admitted access: one shared
  /// fetch_add per stride (1/16th of the finest periodic mark, at most 64),
  /// and on_due() when the thread's view (the shared count it last saw plus
  /// its unpublished ticks) reaches the next due mark.
  void tick();
  /// The crossing thread's handler: under the maintenance lock, stops the
  /// world when a checkpoint is due, the guard has work or a fault position
  /// is reached, then advances the marks; faults fire after the world
  /// resumes. Out of line and cold so the access path stays frame-light.
#if defined(__GNUC__)
  [[gnu::noinline, gnu::cold]]
#endif
  void on_due(std::uint64_t view);
  /// Moves every due mark past event `done` and republishes due_.
  void advance_marks(std::uint64_t done) noexcept;
  /// Serializes the profiler with meta.events = its access count, so the
  /// index always equals the accesses the snapshot covers.
  void write_checkpoint(const std::string& state, const std::string& reason);
  /// Forces a flight-recorder epoch boundary and persists the ring next to
  /// the checkpoint file (`<checkpoint>.epochs`). No-op when the recorder is
  /// disabled or no checkpoint path is configured; IO failure is counted and
  /// warned once, never propagated (the checkpoint itself must not be lost
  /// to a sidecar problem).
  void write_epoch_sidecar();

  // Safepoint protocol (active only when gate_ is set). The common
  // uncontended enter is inlined at the call sites; the backout-and-spin
  // loop lives out of line and cold so the fast path stays frame-light —
  // inlining the world-stop machinery would spill arguments on every access.
  void safepoint_enter(Slot& s) noexcept;
#if defined(__GNUC__)
  [[gnu::noinline, gnu::cold]]
#endif
  void safepoint_enter_contended(Slot& s) noexcept;
  void safepoint_leave(Slot& s) noexcept;
  void stop_the_world() noexcept;
  void resume_the_world() noexcept;

  core::Profiler* profiler_;
  ResourceGuard* guard_;
  Options options_;
  FaultInjector* injector_;
  CrashGuard* crash_;
  bool guard_enabled_;  ///< cached guard_ && guard_->enabled()
  bool gate_;           ///< safepoint and event clock on
  bool suppressible_;   ///< an event budget is set: accesses may be dropped
  bool asym_;           ///< membarrier available: relaxed-store fast path
  unsigned threads_;    ///< the profiler's max_threads: tids with a slot
  std::uint64_t check_every_;  ///< guard check interval; 0 = no guard
  std::uint32_t stride_ = 1;  ///< ticks per publish to clock_
  std::uint64_t gen_ = 0;     ///< ties a thread's clock to this sink

  std::atomic<std::uint64_t> reentrant_drops_{0};
  std::uint64_t checkpoints_written_ = 0;
  bool checkpoint_io_failed_ = false;
  bool epoch_io_failed_ = false;

  std::mutex maintenance_mu_;
  // The due marks, advanced under maintenance_mu_; due_ is their minimum.
  std::uint64_t next_checkpoint_ = kNever;
  std::uint64_t next_check_ = kNever;   ///< next guard check interval
  std::uint64_t next_budget_ = kNever;  ///< event budget + 1
  std::uint64_t next_fault_ = kNever;   ///< next kill/sleep position

  /// Published clock ticks. Written once per stride by each thread, so it
  /// has a line of its own, away from the words every access reads.
  alignas(64) std::atomic<std::uint64_t> clock_{0};
  /// Read on every gated access: the next due mark, and the pause word (1
  /// while the world is stopped) that safepoint_enter checks.
  alignas(64) std::atomic<std::uint64_t> due_{kNever};
  std::atomic<std::uint32_t> pause_{0};
  Slot slots_[64];
};

}  // namespace commscope::resilience
