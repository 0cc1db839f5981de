// Resource guardrails with a graceful-degradation ladder.
//
// A profiling run should never die because the profiler itself outgrew the
// machine. The guard watches the profiler's tracked memory footprint and the
// event count against user budgets (--mem-budget / --event-budget) and, when
// a budget is breached, walks a ladder of accuracy-for-survival downshifts
// instead of aborting:
//
//   1. exact backend        -> bounded asymmetric signature (state migrates)
//   2. dense region matrices -> sparse representation
//   3. signature slots      -> halved (floor 4096; detector state resets)
//
// Each applied rung is recorded as a DegradationEvent in the profiler, so a
// degraded report carries its own provenance. When the ladder is exhausted
// and memory still exceeds the budget, that too is recorded once — the run
// still completes. An exhausted event budget suppresses further access
// events (region structure and counts stay exact, volumes freeze).
//
// The guard is policy only; GuardedSink provides the mechanism (checks at
// the event clock's due marks, quiescence before any rung applies). Events
// are the profiler's admitted accesses, so budgets and degradation indices
// are phrased in ProfileStats::accesses.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/profiler.hpp"
#include "resilience/fault_injector.hpp"

namespace commscope::resilience {

struct GuardOptions {
  std::uint64_t mem_budget_bytes = 0;  ///< 0 = unlimited
  std::uint64_t event_budget = 0;      ///< 0 = unlimited
  /// Events between budget peeks: GuardedSink peeks at every multiple.
  std::uint64_t check_interval = 1024;
};

class ResourceGuard {
 public:
  ResourceGuard(GuardOptions options, core::Profiler& profiler,
                FaultInjector* injector = nullptr)
      : options_(options), profiler_(&profiler), injector_(injector) {}

  /// True when any guardrail is configured (or an injector can trip one);
  /// GuardedSink skips the safepoint protocol entirely otherwise.
  [[nodiscard]] bool enabled() const noexcept {
    return options_.mem_budget_bytes != 0 || options_.event_budget != 0 ||
           injector_ != nullptr;
  }

  [[nodiscard]] const GuardOptions& options() const noexcept {
    return options_;
  }

  /// Cheap lock-free peek at a due mark: does `check()` have anything to do
  /// at event `index`? Only when this returns true does the caller pay for
  /// stopping the world. Once the ladder is spent, memory over the budget is
  /// nothing check() can act on, so it no longer counts.
  [[nodiscard]] bool action_pending(std::uint64_t index) const noexcept {
    if (options_.mem_budget_bytes != 0 && !exhausted_ &&
        profiler_->memory_bytes() > options_.mem_budget_bytes) {
      return true;
    }
    if (injector_ != nullptr && injector_->alloc_failure_pending()) {
      return true;
    }
    if (options_.event_budget != 0 && index > options_.event_budget &&
        !suppress_.load(std::memory_order_relaxed)) {
      return true;
    }
    return false;
  }

  /// Applies whatever the budgets demand at event `index`. Caller must hold
  /// quiescence (no profiling thread inside an event callback) because the
  /// ladder rungs replace live data structures.
  void check(std::uint64_t index);

  /// True once the event budget is exhausted; GuardedSink drops further
  /// access events (loop structure events still flow).
  [[nodiscard]] bool suppress_accesses() const noexcept {
    return suppress_.load(std::memory_order_relaxed);
  }

 private:
  /// One rung: first applicable downshift. False when the ladder is spent.
  bool apply_one_rung(std::uint64_t index, const std::string& reason);

  GuardOptions options_;
  core::Profiler* profiler_;
  FaultInjector* injector_;
  // suppress_ is written only from check() (which runs with the world
  // stopped) but read from every thread's event path, so it is a relaxed
  // atomic. exhausted_ is only touched under the maintenance lock.
  std::atomic<bool> suppress_{false};
  bool exhausted_ = false;  ///< the ladder is spent and memory is still over
};

}  // namespace commscope::resilience
