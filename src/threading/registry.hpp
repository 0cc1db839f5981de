// Hardened dense thread-id registry with slot reclamation and lifecycle
// contracts.
//
// The profiler indexes communication matrices and signature payloads by a
// dense thread id in [0, capacity()). Workload kernels get their id from the
// ThreadTeam; code using raw std::thread (examples, tests, the stress
// harness) obtains one here. The original registry handed out monotonically
// increasing ids, which meant a long-running process with thread churn
// (pools resizing, requests spawning short-lived workers) eventually walked
// every id past the profiler's matrix dimension and all later events were
// unattributable. The hardened registry fixes the lifecycle instead:
//
//   * Slot reclamation — each thread leases the lowest free slot on first
//     use; a thread_local lease destructor returns it at thread exit, so ids
//     stay dense under arbitrary churn. A respawned worker reuses the slot
//     its predecessor vacated (deterministically, when the predecessor is
//     joined first).
//   * Bounded capacity with graceful overflow — when every slot is live,
//     current_tid() returns kUnregistered (-1) instead of handing out an id
//     that would index out of bounds downstream; sinks treat kUnregistered
//     as "drop and count" (see core::Profiler::dropped_events()). The
//     acquisition is retried on a later call, so a slot freed by an exiting
//     thread becomes available to previously-overflowed threads.
//   * Reentrancy guard — instrumented allocators (a MemoryTracker observer
//     that itself allocates, a malloc hook) would recurse into the sink
//     forever; ReentrancyGuard gives each thread a depth counter so the
//     outermost entry can detect and suppress nested self-instrumentation.
//   * Flush hooks — callbacks registered with at_flush() run at process
//     exit (atexit) and before fork() (pthread_atfork prepare), so buffered
//     profile state reaches its sink even when the process exits or forks
//     mid-phase. In the fork child the registry re-initializes to contain
//     only the forking thread: the other threads do not exist there and
//     their slots must not leak into the child's profile.
//
// Stopping the world is not the registry's job: GuardedSink's safepoint
// parks every appender before maintenance touches profiler state.
//
// All fast-path operations (current_tid after first use, guard enter/leave)
// are thread_local accesses with no shared stores.
#pragma once

#include <cstdint>

namespace commscope::threading {

class ThreadRegistry {
 public:
  /// Returned by current_tid() when every slot is leased. Downstream sinks
  /// must treat it as "unattributable event", never as an index.
  static constexpr int kUnregistered = -1;

  /// Slot-table size. 64 matches the profiler/matrix ceiling; the headroom
  /// above it absorbs auxiliary threads (watchdog, maintenance, tests).
  static constexpr int kCapacity = 128;

  /// Dense id of the calling thread, leased on first call and reclaimed at
  /// thread exit. Returns kUnregistered when the table is full (the call is
  /// retried on a later invocation, so churn can heal overflow).
  [[nodiscard]] static int current_tid() noexcept;

  /// Number of distinct leases ever granted (monotonic; reused slots count
  /// each time). Kept for back-compat with the original monotonic registry.
  [[nodiscard]] static int registered_count() noexcept;

  /// Slots currently leased by live threads.
  [[nodiscard]] static int live_count() noexcept;

  /// current_tid() calls that found the table full.
  [[nodiscard]] static std::uint64_t overflows() noexcept;

  [[nodiscard]] static constexpr int capacity() noexcept { return kCapacity; }

  // --- reentrancy ----------------------------------------------------------

  /// Marks the calling thread as inside the instrumentation runtime for the
  /// guard's lifetime. `engaged()` is true only for the outermost guard on
  /// this thread: an instrumented allocator re-entering the sink constructs
  /// a second guard, sees engaged() == false, and skips self-instrumentation
  /// instead of recursing.
  class ReentrancyGuard {
   public:
    ReentrancyGuard() noexcept;
    ~ReentrancyGuard();
    ReentrancyGuard(const ReentrancyGuard&) = delete;
    ReentrancyGuard& operator=(const ReentrancyGuard&) = delete;
    [[nodiscard]] bool engaged() const noexcept { return engaged_; }

   private:
    bool engaged_;
  };

  /// True while the calling thread holds at least one ReentrancyGuard.
  [[nodiscard]] static bool in_runtime() noexcept;

  // --- lifecycle flush hooks -----------------------------------------------

  using FlushFn = void (*)() noexcept;

  /// Registers `fn` to run at process exit and at fork() (in the preparing
  /// parent), and whenever run_flush_hooks() is called explicitly. Fixed
  /// capacity (8); returns false when full. Hooks must be callable from any
  /// thread and must not assume other threads are stopped.
  static bool at_flush(FlushFn fn) noexcept;

  /// Runs every registered flush hook, newest first. Reentrancy-guarded:
  /// a hook that itself triggers a flush does not recurse.
  static void run_flush_hooks() noexcept;

  // --- thread-exit hooks -----------------------------------------------------

  using ThreadExitFn = void (*)(int tid) noexcept;

  /// Registers `fn` to run on the exiting thread itself, just before its
  /// leased slot is reclaimed, with the dense id it held. This is the last
  /// point the thread's buffered profile state (the batched ingest pipeline's
  /// micro-batch) can be drained by its owner; after reclamation the slot may
  /// be re-leased. Fixed capacity (8); returns false when full. Hooks run
  /// newest first and must be async-teardown safe: only trivially
  /// destructible statics may be touched.
  static bool at_thread_exit(ThreadExitFn fn) noexcept;
};

}  // namespace commscope::threading
