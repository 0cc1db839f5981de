// GuardedSink — the mechanism that makes resilience policy safe to apply.
//
// Wraps a core::Profiler behind the AccessSink interface and adds, on the
// event path:
//   * a global event counter (the index budgets, checkpoints and fault
//     injection are phrased in),
//   * fault-injection hooks (kill/stall at event N),
//   * periodic ResourceGuard checks, executed under a stop-the-world
//     safepoint so ladder rungs can replace live backend/matrix structures,
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
// Event accounting has two speeds. When exact event indices matter — a
// fault injector is attached, checkpointing is on, or an event budget is
// set — a shared atomic counter assigns a global index per event. Otherwise
// (the common mem-budget-only "idle guard") there is no per-event counting
// at all: the guard watches the budget from the MemoryTracker's allocation
// observer (memory only grows through tracked allocations) and raises a
// budget bit in the safepoint's pause word. Every gated path, in either
// mode, reads that one word: a world stop (maintenance, flush) sets its own
// bit, so neither clears the other, and the access path pays exactly one
// acquire load (budget poll and Dekker check combined) plus the two slot
// stores.
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
#include "threading/registry.hpp"

namespace commscope::resilience {

class GuardedSink final : public instrument::AccessSink {
 public:
  struct Options {
    std::uint64_t checkpoint_every = 0;  ///< events between snapshots; 0 = off
    std::string checkpoint_path;         ///< empty = no checkpoint file
    /// Force precise per-event counting even when no injector, checkpoint or
    /// event budget requires it, so events() is readable while the run is in
    /// flight (live views like `commscope top` poll it from another thread).
    bool count_events = false;
  };

  /// `guard`, `injector` and `crash` are optional (may be null) and, like
  /// `profiler`, must outlive the sink. When `crash` is armed with a dump
  /// path, an initial (empty) snapshot is published immediately so even a
  /// crash before the first periodic checkpoint dumps something loadable.
  /// Snapshots are serialized only when a checkpoint path or a dump path
  /// can take them. In coarse mode with a memory budget, the sink installs
  /// the guard as the MemoryTracker's allocation observer (and removes it on
  /// destruction).
  GuardedSink(core::Profiler& profiler, ResourceGuard* guard, Options options,
              FaultInjector* injector = nullptr, CrashGuard* crash = nullptr);
  ~GuardedSink() override;

  // --- AccessSink ----------------------------------------------------------
  void on_thread_begin(int tid) override { profiler_->on_thread_begin(tid); }
  void on_loop_enter(int tid, instrument::LoopId id) override;
  void on_loop_exit(int tid) override;
  void on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                 instrument::AccessKind kind) override;
  void finalize() override;
  /// Drains `tid`'s micro-batch through the same reentrancy guard and
  /// safepoint the access path uses. Never suppressed and never assigned an
  /// event index: the buffered accesses were already counted when they were
  /// admitted, so a drain is pure delivery, not a new event.
  void on_drain(int tid) override;

  /// Best-effort flush: serialize the current profiler state and hand it to
  /// the CrashGuard's dump path and the checkpoint file, where set. Runs under
  /// the maintenance lock and, when the safepoint protocol is active, under
  /// a stopped world. Registered as a ThreadRegistry flush hook so buffered
  /// state survives exit() and fork() mid-phase.
  void flush() noexcept;

  /// Counted events. Exact in precise mode; in coarse mode there is no
  /// per-event counting, so this reads 0 until finalize() stamps it from the
  /// profiler's access statistics.
  [[nodiscard]] std::uint64_t events() const noexcept {
    return events_.load(std::memory_order_relaxed);
  }
  /// Access events dropped because the event budget was exhausted.
  [[nodiscard]] std::uint64_t suppressed() const noexcept {
    return suppressed_.load(std::memory_order_relaxed);
  }
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
  };

  /// Bits of pause_, the one word every gated path checks on entry.
  static constexpr std::uint32_t kWorldStopped = 1;   ///< stop_the_world()
  static constexpr std::uint32_t kBudgetCrossed = 2;  ///< guard's sensor

  /// Precise-mode event prologue: assigns the global index, runs injector
  /// faults, and performs guard/checkpoint maintenance when due.
  std::uint64_t begin_event();
  /// Coarse-mode response to the budget bit: stop the world and run the
  /// guard check, indexed by the profiler's own access count.
  void coarse_tick();
  void maintenance(std::uint64_t index);
  void write_checkpoint(std::uint64_t index, const std::string& state,
                        const std::string& reason);
  /// Forces a flight-recorder epoch boundary and persists the ring next to
  /// the checkpoint file (`<checkpoint>.epochs`). No-op when the recorder is
  /// disabled or no checkpoint path is configured; IO failure is counted and
  /// warned once, never propagated (the checkpoint itself must not be lost
  /// to a sidecar problem).
  void write_epoch_sidecar(const std::string& reason);

  // Safepoint protocol (active only when gate_ is set). The common
  // uncontended enter is inlined at the call sites; the backout-and-spin
  // loop (which also runs a pending budget check) lives out of line and
  // cold so the fast path stays frame-light — inlining the world-stop
  // machinery would spill arguments on every access.
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
  bool gate_;
  bool precise_;        ///< exact per-event indices required
  bool guard_enabled_;  ///< cached guard_ && guard_->enabled()
  bool asym_;           ///< membarrier available: relaxed-store fast path
  bool observer_installed_ = false;
  std::uint64_t check_mask_;  ///< guard check interval rounded up to pow2 - 1

  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> suppressed_{0};
  std::atomic<std::uint64_t> reentrant_drops_{0};
  std::uint64_t checkpoints_written_ = 0;
  bool checkpoint_io_failed_ = false;
  bool epoch_io_failed_ = false;

  std::mutex maintenance_mu_;
  /// kWorldStopped | kBudgetCrossed. The guard's allocation sensor is bound
  /// to the budget bit (bind_pending) in coarse mode, so the access hot path
  /// reads its own object, not the guard's.
  std::atomic<std::uint32_t> pause_{0};
  Slot slots_[64];
};

}  // namespace commscope::resilience
