// Deterministic fault injection for the resilience test harness.
//
// Crash-safety claims are only as good as the failures they were tested
// against, so CommScope ships its fault model in-tree: a FaultInjector can
// fail the Nth tracked allocation (driving the ResourceGuard's degradation
// ladder), truncate or bit-flip a checkpoint payload as it is written
// (simulating torn/corrupt writes, driving the loader's CRC rejection), and
// kill or stall a run after its Nth profiled access (driving the
// emergency-dump and watchdog paths). All decisions are deterministic:
// positions come from the plan, bit choices from support::SplitMix64 seeded
// by the plan, so every failing test replays identically.
//
// Plans come from code (tests) or from the COMMSCOPE_FAULT environment
// variable (CLI end-to-end tests), e.g.:
//   COMMSCOPE_FAULT="alloc:5" commscope run fft
//   COMMSCOPE_FAULT="kill-at-event:5000" commscope replay t.trace
//   COMMSCOPE_FAULT="write-corrupt:40;seed:7" commscope run lu_cb
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "support/memtrack.hpp"

namespace commscope::resilience {

/// Thrown by KillMode::kThrow kills — lets in-process tests drive the
/// crash path without taking the test runner down.
class InjectedCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What the injector should do, all positions 1-based and 0 = disabled.
struct FaultPlan {
  std::uint64_t fail_alloc_at = 0;      ///< Nth tracked allocation fails
  // Events are profiled accesses: the fault fires after the Nth one.
  std::uint64_t kill_at_event = 0;      ///< crash after event N
  std::uint64_t sleep_at_event = 0;     ///< stall after event N (watchdog)
  std::uint64_t sleep_ms = 500;         ///< stall duration
  std::uint64_t truncate_write_at = 0;  ///< cut a written payload to K bytes
  std::uint64_t corrupt_write_at = 0;   ///< flip one bit in payload byte K
  // Socket-layer faults for the `commscope serve` daemon and its shipper.
  std::uint64_t accept_fail_at = 0;     ///< daemon closes the Nth accept
  std::uint64_t short_read_at = 0;      ///< Nth daemon recv reads one byte
  std::uint64_t eagain_at = 0;          ///< Nth daemon recv starts a storm
  std::uint64_t eagain_len = 16;        ///< reads deferred per storm
  std::uint64_t drop_mid_frame_at = 0;  ///< client cuts its Nth frame in half
  // Durability faults for the serve daemon's WAL + snapshot layer.
  std::uint64_t wal_write_short_at = 0;  ///< Nth WAL append short-writes
  std::uint64_t wal_fsync_fail_at = 0;   ///< Nth WAL barrier fsync fails
  std::uint64_t wal_torn_tail_at = 0;    ///< kill -9 mid-record on append N
  std::uint64_t snapshot_crash_at = 0;   ///< kill -9 mid-tmp on compaction N
  /// Nth perf_event_open call (and all later ones) fails — simulates a host
  /// with no usable PMU (N=1) or fd exhaustion mid-attach (N>1). Consumed by
  /// telemetry::PerfCounters directly (telemetry cannot depend on this
  /// layer); listed here so the spec parser accepts the clause.
  std::uint64_t perf_open_fail_at = 0;
  std::uint64_t seed = 0x5eedULL;       ///< RNG seed for bit choices

  [[nodiscard]] bool any() const noexcept {
    // perf_open_fail_at is deliberately absent: it is handled entirely
    // inside the telemetry engine, and a global COMMSCOPE_FAULT of only
    // "perf-open-fail:N" (the no-PMU CI job) must not drag the resilience
    // stack into every run.
    return fail_alloc_at || kill_at_event || sleep_at_event ||
           truncate_write_at || corrupt_write_at || accept_fail_at ||
           short_read_at || eagain_at || drop_mid_frame_at ||
           wal_write_short_at || wal_fsync_fail_at || wal_torn_tail_at ||
           snapshot_crash_at;
  }
};

/// How kill_at_event crashes: a real SIGSEGV (CLI end-to-end tests exercise
/// the async-signal-safe dump) or an InjectedCrash exception (unit tests).
enum class KillMode { kRaise, kThrow };

class FaultInjector final : public support::AllocObserver {
 public:
  explicit FaultInjector(FaultPlan plan, KillMode mode = KillMode::kRaise)
      : plan_(plan), mode_(mode) {}

  /// Parses a "fault:arg;fault:arg" spec; throws std::invalid_argument on
  /// unknown fault names or malformed positions.
  [[nodiscard]] static FaultPlan parse_plan(const std::string& spec);

  /// Plan from $COMMSCOPE_FAULT; nullopt when unset/empty.
  [[nodiscard]] static std::optional<FaultPlan> plan_from_env();

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  // --- allocation faults (support::AllocObserver) --------------------------
  void on_tracked_alloc(std::size_t /*bytes*/) noexcept override {
    const std::uint64_t n = allocs_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (plan_.fail_alloc_at != 0 && n == plan_.fail_alloc_at) {
      alloc_failed_.store(true, std::memory_order_release);
    }
  }

  /// Lock-free peek: has the Nth allocation fired and not been consumed?
  [[nodiscard]] bool alloc_failure_pending() const noexcept {
    return alloc_failed_.load(std::memory_order_acquire);
  }

  /// True exactly once after the Nth tracked allocation fired; the
  /// ResourceGuard consumes this as an allocation-failure signal and
  /// degrades instead of letting the run die.
  [[nodiscard]] bool consume_alloc_failure() noexcept {
    return alloc_failed_.exchange(false, std::memory_order_acq_rel);
  }

  [[nodiscard]] std::uint64_t allocs_seen() const noexcept {
    return allocs_.load(std::memory_order_relaxed);
  }

  // --- event-stream faults -------------------------------------------------

  /// The first kill or sleep position past event `index` (all ones when none
  /// is left): the next mark at which GuardedSink calls on_event().
  [[nodiscard]] std::uint64_t next_event_fault(
      std::uint64_t index) const noexcept;

  /// Called with the event index at a due mark; stalls, then kills (per
  /// KillMode), each fault once, at the first index at or past its position.
  void on_event(std::uint64_t index);

  // --- stream-write faults -------------------------------------------------

  /// Applies the plan's truncate/corrupt faults to a payload about to be
  /// written (each fires at most once per injector). Returns true when the
  /// payload was damaged.
  bool mutate_payload(std::string& payload) noexcept;

 private:
  FaultPlan plan_;
  KillMode mode_;
  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<bool> alloc_failed_{false};
  std::atomic<bool> write_fault_done_{false};
  std::atomic<bool> sleep_done_{false};
  std::atomic<bool> kill_done_{false};
};

}  // namespace commscope::resilience
