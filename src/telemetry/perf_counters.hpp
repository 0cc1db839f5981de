// Hardware counter attribution — perf_event_open grounding for the matrices.
//
// The profiler's communication matrices are *inferred* from software-observed
// RAW dependences; the machine's cache-coherence traffic is the physical cost
// those matrices predict. This engine closes that loop: every profiling
// thread opens a per-thread perf counter group (cycles, instructions,
// LLC-load-misses, and a HITM/remote-snoop event where the PMU exposes one)
// and the profiler reads it at loop and epoch boundaries, so each region and
// each flight-recorder epoch carries the hardware deltas that occurred while
// its communication delta accumulated.
//
// Design constraints, in order:
//   * Graceful degradation is the default path, not the exception. perf may
//     be unavailable for a dozen reasons (perf_event_paranoid, containers
//     without CAP_PERFMON, exhausted fds, exotic PMUs); every event slot
//     falls back independently, failures are counted in `perf.unavailable`,
//     and the comm matrices are NEVER affected — a degraded engine returns
//     empty deltas with present == 0 and the pipeline renders "n/a".
//   * Multiplexing honesty: the kernel time-slices conflicting events; raw
//     counts from a multiplexed group undercount. Readings are scaled by
//     time_enabled/time_running (the standard estimator) and flagged
//     `multiplexed`, with a `perf.multiplexed` provenance counter, so a
//     scaled number is never mistaken for a measured one.
//   * The engine charges its slot table to MemoryTracker (Figure 5 honesty).
//   * Fault injection: the `perf-open-fail:N` COMMSCOPE_FAULT point makes
//     perf_event_open calls from the Nth onward fail (N=1 simulates a host
//     with no PMU at all), proving the degradation path in CI without
//     needing a locked-down kernel.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "support/memtrack.hpp"

namespace commscope::telemetry {

// --- data model (always available; epoch_io serializes this) ----------------

/// Bits of PerfDelta::present — which event slots contributed real readings.
inline constexpr std::uint8_t kPerfCycles = 1u << 0;
inline constexpr std::uint8_t kPerfInstructions = 1u << 1;
inline constexpr std::uint8_t kPerfLlcMisses = 1u << 2;
inline constexpr std::uint8_t kPerfHitm = 1u << 3;
inline constexpr std::uint8_t kPerfPresentAll = 0xF;

/// Hardware counter delta across one attribution window (a loop region
/// segment or a flight-recorder epoch). `present` says which fields carry a
/// real measurement; absent fields stay zero and must render as "n/a", not
/// as zero events. `multiplexed` marks that at least one contributing
/// reading was time-scaled (time_running < time_enabled).
struct PerfDelta {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  /// HITM-class event: a load serviced by another core's modified line —
  /// the closest per-thread PMU proxy for true sharing. Portable fallback
  /// is remote/cross-node cache misses (see PerfCounters::hitm_source).
  std::uint64_t hitm = 0;
  std::uint8_t present = 0;  ///< kPerf* bitmask of measured fields
  bool multiplexed = false;

  [[nodiscard]] bool any() const noexcept { return present != 0; }

  PerfDelta& operator+=(const PerfDelta& o) noexcept {
    cycles += o.cycles;
    instructions += o.instructions;
    llc_misses += o.llc_misses;
    hitm += o.hitm;
    present |= o.present;
    multiplexed = multiplexed || o.multiplexed;
    return *this;
  }

  /// Saturating cumulative-reading subtraction (this - older); present is
  /// the intersection — a field is only a measured delta when both ends
  /// measured it.
  [[nodiscard]] PerfDelta since(const PerfDelta& older) const noexcept {
    PerfDelta d;
    d.cycles = cycles >= older.cycles ? cycles - older.cycles : 0;
    d.instructions = instructions >= older.instructions
                         ? instructions - older.instructions
                         : 0;
    d.llc_misses =
        llc_misses >= older.llc_misses ? llc_misses - older.llc_misses : 0;
    d.hitm = hitm >= older.hitm ? hitm - older.hitm : 0;
    d.present = present & older.present;
    d.multiplexed = multiplexed || older.multiplexed;
    return d;
  }

  [[nodiscard]] bool operator==(const PerfDelta&) const noexcept = default;
};

/// Where the HITM slot's numbers come from (rendered as provenance; raw PMU
/// encodings are microarchitecture-specific and a reader must be able to
/// tell a true HITM count from the portable fallback).
enum class HitmSource : std::uint8_t {
  kNone = 0,      ///< no HITM-class event could be opened
  kIntelXsnp,     ///< MEM_LOAD_L3_HIT_RETIRED.XSNP_HITM (raw, Intel only)
  kNodeMisses,    ///< PERF_COUNT_HW_CACHE_NODE read misses (portable proxy)
};

[[nodiscard]] const char* to_string(HitmSource s) noexcept;

struct PerfCountersOptions {
  int max_threads = 0;
  /// Fault point: 1-based index of the first perf_event_open call that must
  /// fail (every later call fails too); 0 = no injection. When 0, the
  /// engine honours a `perf-open-fail:N` clause in $COMMSCOPE_FAULT so the
  /// CLI and CI can inject without plumbing.
  std::uint32_t open_fail_from = 0;
};

/// Per-thread perf_event_open counter-group engine.
///
/// Each profiling thread calls attach_current_thread(tid) once (from its own
/// context — perf needs the calling thread's identity for pid=0 scoping);
/// the group leader is the first event slot that opens, siblings share its
/// group so all slots start/stop together and one read() syscall returns a
/// consistent snapshot. read_thread(tid) may be called from any thread
/// (reading another thread's perf fds is explicitly supported by the
/// kernel); window_delta() sums all threads and returns the delta since the
/// previous window_delta() call — the flight recorder calls it under its
/// seal lock, so epochs partition the hardware counts exactly like they
/// partition the comm-matrix deltas.
class PerfCounters {
 public:
  explicit PerfCounters(PerfCountersOptions options,
                        support::MemoryTracker* tracker = nullptr);
  ~PerfCounters();

  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  /// True when at least one event slot opened on at least one attached
  /// thread. False engines return empty deltas everywhere — callers need no
  /// special-casing, but can render the degradation.
  [[nodiscard]] bool available() const noexcept;

  /// Which events this engine attempts per thread (fixed set, in PerfDelta
  /// field order); which succeeded is per-thread in the slot table.
  [[nodiscard]] HitmSource hitm_source() const noexcept {
    return hitm_src_.load(std::memory_order_relaxed);
  }

  /// Opens this thread's counter group for `tid`. Idempotent per tid; a tid
  /// outside [0, max_threads) is ignored (mirrors Profiler::admit_tid).
  void attach_current_thread(int tid);

  /// Multiplexing-scaled cumulative totals for one thread since attach.
  /// Empty (present == 0) when the thread never attached or every slot
  /// failed. Thread-safe.
  [[nodiscard]] PerfDelta read_thread(int tid) noexcept;

  /// Scaled cumulative totals across all attached threads.
  [[nodiscard]] PerfDelta total() noexcept;

  /// Delta across all threads since the previous window_delta() call (the
  /// epoch boundary read). Serialized internally; the flight recorder is
  /// the only caller and already holds its seal lock.
  [[nodiscard]] PerfDelta window_delta() noexcept;

 private:
  struct Slot;  // one thread's fd group (defined in the .cpp)

  [[nodiscard]] PerfDelta read_slot(Slot& s) noexcept;
  /// Central open gate: applies the fault plan, counts provenance.
  int open_event(std::uint32_t type, std::uint64_t config, int group_fd,
                 bool leader) noexcept;

  PerfCountersOptions options_;
  support::MemoryTracker* tracker_ = nullptr;
  std::uint64_t tracked_bytes_ = 0;
  /// Process-unique engine id backing the per-OS-thread attach guard (see
  /// attach_current_thread in the .cpp).
  std::uint64_t engine_id_ = 0;
  std::atomic<HitmSource> hitm_src_{HitmSource::kNone};
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> opens_attempted_{0};
  std::atomic<int> attached_ok_{0};

  std::mutex window_mu_;
  PerfDelta window_last_;  ///< cumulative totals at the previous boundary
};

}  // namespace commscope::telemetry
