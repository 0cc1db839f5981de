// Per-thread reentrancy guard for the instrumentation runtime.
//
// An instrumented allocator (a MemoryTracker observer that itself
// allocates, a malloc hook) that fires while the profiler is allocating
// would recurse into the sink forever. ReentrancyGuard gives each thread a
// depth counter, so the outermost entry can detect and suppress nested
// self-instrumentation. Enter and leave are thread_local increments with no
// shared stores.
#pragma once

#include <cstdint>

namespace commscope::threading {

/// Marks the calling thread as inside the instrumentation runtime for the
/// guard's lifetime. `engaged()` is true only for the outermost guard on
/// this thread: an instrumented allocator re-entering the sink constructs a
/// second guard, sees engaged() == false, and skips self-instrumentation
/// instead of recursing.
class ReentrancyGuard {
 public:
  ReentrancyGuard() noexcept : engaged_(depth_++ == 0) {}
  ~ReentrancyGuard() { --depth_; }
  ReentrancyGuard(const ReentrancyGuard&) = delete;
  ReentrancyGuard& operator=(const ReentrancyGuard&) = delete;
  [[nodiscard]] bool engaged() const noexcept { return engaged_; }

 private:
  static inline thread_local std::uint32_t depth_ = 0;
  bool engaged_;
};

}  // namespace commscope::threading
