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
//   3. sampling duty cycle  -> halved (when a SamplingSink is attached)
//   4. signature slots      -> halved (floor 4096; detector state resets)
//
// Each applied rung is recorded as a DegradationEvent in the profiler, so a
// degraded report carries its own provenance. When the ladder is exhausted
// and memory still exceeds the budget, that too is recorded once — the run
// still completes. An exhausted event budget suppresses further access
// events (region structure and counts stay exact, volumes freeze).
//
// The guard is policy only; GuardedSink provides the mechanism (periodic
// checks from the event path, quiescence before any rung applies).
#pragma once

#include <atomic>
#include <cstdint>

#include "core/profiler.hpp"
#include "instrument/sampling.hpp"
#include "resilience/fault_injector.hpp"
#include "support/memtrack.hpp"

namespace commscope::resilience {

struct GuardOptions {
  std::uint64_t mem_budget_bytes = 0;  ///< 0 = unlimited
  std::uint64_t event_budget = 0;      ///< 0 = unlimited
  /// Events between budget peeks (rounded up to a power of two by the sink).
  std::uint64_t check_interval = 1024;
};

class ResourceGuard : public support::AllocObserver {
 public:
  ResourceGuard(GuardOptions options, core::Profiler& profiler,
                FaultInjector* injector = nullptr,
                instrument::SamplingSink* sampler = nullptr)
      : options_(options),
        profiler_(&profiler),
        injector_(injector),
        sampler_(sampler) {}

  /// Allocation-path sensor: installed by GuardedSink (coarse mode) on the
  /// profiler's MemoryTracker, it raises the pending bit the moment a
  /// tracked allocation crosses the memory budget. Memory only grows through
  /// tracked allocations, so the bit (which lives in the coarse-mode
  /// safepoint pause word; check() clears it with release when done) is all
  /// the event hot path ever has to look at.
  void on_tracked_alloc(std::size_t bytes) noexcept override {
    if (watching_.load(std::memory_order_relaxed) &&
        options_.mem_budget_bytes != 0 &&
        (pending_->load(std::memory_order_relaxed) & pending_bit_) == 0 &&
        profiler_->memory_bytes() + bytes > options_.mem_budget_bytes) {
      pending_->fetch_or(pending_bit_, std::memory_order_relaxed);
    }
  }

  /// Redirects the pending bit to `bit` of sink-owned `word` so the access
  /// hot path reads one flag word of its own object instead of chasing a
  /// pointer into the guard; the guard never touches the word's other bits.
  /// `word` must outlive the guard's last sensor call.
  void bind_pending(std::atomic<std::uint32_t>& word,
                    std::uint32_t bit) noexcept {
    pending_ = &word;
    pending_bit_ = bit;
  }

  /// Raises the pending bit if the budget is already blown (covers memory
  /// charged before the guard was attached).
  void prime() noexcept {
    if (options_.mem_budget_bytes != 0 &&
        profiler_->memory_bytes() > options_.mem_budget_bytes) {
      pending_->fetch_or(pending_bit_, std::memory_order_relaxed);
    }
  }

  /// True when any guardrail is configured (or an injector can trip one);
  /// GuardedSink skips the safepoint protocol entirely otherwise.
  [[nodiscard]] bool enabled() const noexcept {
    return options_.mem_budget_bytes != 0 || options_.event_budget != 0 ||
           injector_ != nullptr;
  }

  [[nodiscard]] const GuardOptions& options() const noexcept {
    return options_;
  }

  /// Cheap lock-free peek from the event hot path: does `check()` have
  /// anything to do at event `index`? Only when this returns true does the
  /// caller pay for stopping the world.
  [[nodiscard]] bool action_pending(std::uint64_t index) const noexcept {
    if (options_.mem_budget_bytes != 0 &&
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

  /// Ladder rungs applied so far (diagnostic; provenance lives in the
  /// profiler's degradation log).
  [[nodiscard]] std::uint64_t downshifts() const noexcept {
    return downshifts_.load(std::memory_order_relaxed);
  }

 private:
  /// One rung: first applicable downshift. False when the ladder is spent.
  bool apply_one_rung(std::uint64_t index, const std::string& reason);

  GuardOptions options_;
  core::Profiler* profiler_;
  FaultInjector* injector_;
  instrument::SamplingSink* sampler_;
  std::atomic<std::uint32_t> own_pending_{0};
  std::atomic<std::uint32_t>* pending_ = &own_pending_;  ///< see bind_pending()
  std::uint32_t pending_bit_ = 1;
  // watching_/suppress_/downshifts_ are written only from check() (which
  // runs with the world stopped) but *read* concurrently from every thread's
  // allocation or event hot path — relaxed atomics, not plain fields, so the
  // reads are not torn/UB under TSan. exhausted_reported_ stays plain: it is
  // only ever touched under the maintenance lock.
  std::atomic<bool> watching_{true};
  std::atomic<bool> suppress_{false};
  bool exhausted_reported_ = false;
  std::atomic<std::uint64_t> downshifts_{0};
};

}  // namespace commscope::resilience
