#include "threading/registry.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <mutex>

#include "telemetry/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <pthread.h>
#define COMMSCOPE_HAVE_ATFORK 1
#endif

namespace commscope::threading {

namespace {

struct Slot {
  std::atomic<std::uint32_t> live{0};
};

// All-registry shared state. Function-local static of trivially destructible
// members: safe to touch from thread_local destructors running at any point
// of process teardown.
struct State {
  Slot slots[ThreadRegistry::kCapacity];
  std::atomic<int> total{0};
  std::atomic<int> live{0};
  std::atomic<std::uint64_t> overflows{0};
  std::atomic<ThreadRegistry::FlushFn> hooks[8] = {};
  std::atomic<int> hook_count{0};
  std::atomic<ThreadRegistry::ThreadExitFn> exit_hooks[8] = {};
  std::atomic<int> exit_hook_count{0};
};

State& state() noexcept {
  static State s;
  return s;
}

// Per-thread lease. The destructor is the reclamation point: it runs when
// the thread exits (thread_local teardown), returning the slot to the free
// pool so a successor can reuse the dense id.
struct Lease {
  int tid = ThreadRegistry::kUnregistered;
  ~Lease() {
    if (tid < 0) return;
    // Exit hooks first, while the slot is still this thread's: the batched
    // sink drains its micro-batch here, before a successor can re-lease the
    // dense id. Newest first, matching run_flush_hooks().
    {
      State& st = state();
      const int n =
          std::min<int>(st.exit_hook_count.load(std::memory_order_acquire),
                        static_cast<int>(std::size(st.exit_hooks)));
      for (int i = n - 1; i >= 0; --i) {
        if (ThreadRegistry::ThreadExitFn fn =
                st.exit_hooks[i].load(std::memory_order_acquire)) {
          fn(tid);
        }
      }
    }
    state().slots[tid].live.store(0, std::memory_order_release);
    const int live = state().live.fetch_sub(1, std::memory_order_relaxed) - 1;
    // Telemetry storage is static and trivially destructible, so stamping
    // from thread_local teardown is safe at any point of process exit.
    telemetry::gauge("registry.live")
        .set(static_cast<std::uint64_t>(std::max(live, 0)));
    tid = ThreadRegistry::kUnregistered;
  }
};

thread_local Lease tl_lease;
thread_local std::uint32_t tl_depth = 0;
thread_local bool tl_in_flush = false;

#if defined(COMMSCOPE_HAVE_ATFORK)
void after_fork_child() noexcept {
  // Only the forking thread survives into the child; every other lease is
  // dead weight that would poison live_count. Rebuild the table to contain
  // exactly this thread (keeping its id stable across the fork).
  State& s = state();
  for (Slot& slot : s.slots) slot.live.store(0, std::memory_order_relaxed);
  s.live.store(0, std::memory_order_relaxed);
  if (tl_lease.tid >= 0) {
    s.slots[tl_lease.tid].live.store(1, std::memory_order_relaxed);
    s.live.store(1, std::memory_order_relaxed);
  }
}
#endif

void install_process_hooks() noexcept {
  static std::once_flag once;
  std::call_once(once, [] {
    std::atexit([] { ThreadRegistry::run_flush_hooks(); });
#if defined(COMMSCOPE_HAVE_ATFORK)
    pthread_atfork([] { ThreadRegistry::run_flush_hooks(); }, nullptr,
                   after_fork_child);
#endif
  });
}

}  // namespace

int ThreadRegistry::current_tid() noexcept {
  if (tl_lease.tid >= 0) return tl_lease.tid;
  install_process_hooks();
  State& s = state();
  for (int i = 0; i < kCapacity; ++i) {
    std::uint32_t expected = 0;
    if (s.slots[i].live.load(std::memory_order_relaxed) == 0 &&
        s.slots[i].live.compare_exchange_strong(expected, 1,
                                                std::memory_order_acq_rel)) {
      s.total.fetch_add(1, std::memory_order_relaxed);
      const int live = s.live.fetch_add(1, std::memory_order_relaxed) + 1;
      tl_lease.tid = i;
      telemetry::counter("registry.leases").add(1);
      telemetry::gauge("registry.live")
          .set(static_cast<std::uint64_t>(live));
      telemetry::gauge("registry.live_peak")
          .set_max(static_cast<std::uint64_t>(live));
      return i;
    }
  }
  // Table full: degrade, don't hand out an out-of-bounds id. Not cached —
  // a later call can succeed once churn frees a slot.
  s.overflows.fetch_add(1, std::memory_order_relaxed);
  telemetry::counter("registry.overflows").add(1);
  return kUnregistered;
}

int ThreadRegistry::registered_count() noexcept {
  return state().total.load(std::memory_order_relaxed);
}

int ThreadRegistry::live_count() noexcept {
  return state().live.load(std::memory_order_relaxed);
}

std::uint64_t ThreadRegistry::overflows() noexcept {
  return state().overflows.load(std::memory_order_relaxed);
}

// --- reentrancy -------------------------------------------------------------

ThreadRegistry::ReentrancyGuard::ReentrancyGuard() noexcept
    : engaged_(tl_depth++ == 0) {}

ThreadRegistry::ReentrancyGuard::~ReentrancyGuard() { --tl_depth; }

bool ThreadRegistry::in_runtime() noexcept { return tl_depth > 0; }

// --- flush hooks ------------------------------------------------------------

bool ThreadRegistry::at_flush(FlushFn fn) noexcept {
  if (fn == nullptr) return false;
  install_process_hooks();
  State& s = state();
  const int idx = s.hook_count.fetch_add(1, std::memory_order_acq_rel);
  if (idx >= static_cast<int>(std::size(s.hooks))) {
    s.hook_count.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  s.hooks[idx].store(fn, std::memory_order_release);
  return true;
}

bool ThreadRegistry::at_thread_exit(ThreadExitFn fn) noexcept {
  if (fn == nullptr) return false;
  State& s = state();
  const int idx = s.exit_hook_count.fetch_add(1, std::memory_order_acq_rel);
  if (idx >= static_cast<int>(std::size(s.exit_hooks))) {
    s.exit_hook_count.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  s.exit_hooks[idx].store(fn, std::memory_order_release);
  return true;
}

void ThreadRegistry::run_flush_hooks() noexcept {
  if (tl_in_flush) return;  // a hook triggering a flush must not recurse
  tl_in_flush = true;
  State& s = state();
  const int n = std::min<int>(s.hook_count.load(std::memory_order_acquire),
                              static_cast<int>(std::size(s.hooks)));
  for (int i = n - 1; i >= 0; --i) {
    if (FlushFn fn = s.hooks[i].load(std::memory_order_acquire)) fn();
  }
  tl_in_flush = false;
}

}  // namespace commscope::threading
