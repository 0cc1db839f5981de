// Schedule-fuzzing stress harness with differential self-verification.
//
// The concurrency hardening in this layer (safepoints, batch drains,
// saturating counters) is only trustworthy if it can be shown NOT to change
// the answer. This harness generates seeded concurrent schedules, drives
// them through the full guarded pipeline (exact backend + GuardedSink with
// the safepoint gate forced on, plus real thread churn: a lane's tid passes
// from an exiting thread to a fresh one), and cross-checks the resulting
// communication matrix against a serial replay of the same schedule into
// the ShadowProfiler — an independently implemented exact oracle. Any
// cell-level divergence is a detector or lifecycle bug, not noise.
//
// Two schedule families, chosen so the expected matrix is well-defined:
//
//  * kLockstep — a single seeded global script (an instrument::TraceEvent
//    stream) executed by real threads through a condition-variable
//    turnstile, so the sink observes exactly the scripted interleaving while
//    every event still runs on its lane's own OS thread (distinct safepoint
//    slots, distinct per-thread event clocks). A churn step is a second
//    kThreadBegin for its lane: the executing thread drains the lane's
//    micro-batch and exits there; a supervisor joins it and spawns a
//    replacement that announces and resumes the lane. The oracle replays
//    the identical script serially with instrument::replay(), so equality
//    must be exact.
//
//  * kFree — barrier-phased truly-concurrent execution. Each phase assigns
//    every word exactly one writer; writes run concurrently (disjoint
//    words), a barrier, then seeded reader sets run concurrently. Because
//    RAW attribution per word depends only on the phase structure, the
//    matrix is schedule-independent and the serial oracle replay must match
//    exactly — under ANY real interleaving the scheduler produces.
//
// Every access is a distinct 8-byte-aligned word, which makes the exact
// backend's per-address cells coincide with the shadow oracle's per-word
// cells. Sampling below 1.0 is mirrored into the oracle replay (the
// SamplingSink's per-lane burst positions are schedule-independent in both
// families), so equality stays exact at every duty cycle; the report still
// carries totals so a tolerance policy could be layered on.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace commscope::resilience {

enum class StressMode : std::uint8_t { kLockstep, kFree };

[[nodiscard]] const char* to_string(StressMode mode) noexcept;

struct StressOptions {
  std::uint64_t seed = 1;
  int threads = 4;  ///< lanes = matrix dimension (1..64)
  /// Lockstep: script length in steps. Free: approximate total access count
  /// (rounded to whole phases).
  std::uint64_t steps = 4096;
  StressMode mode = StressMode::kLockstep;
  /// Sampling duty cycle in (0, 1]; below 1.0 a SamplingSink wraps both the
  /// guarded pipeline and the oracle replay.
  double sampling = 1.0;
  int words = 64;  ///< distinct 8-byte words in the synthetic arena (1..4096)
  /// Inject thread exit/respawn steps (lockstep only).
  bool churn = true;
  /// GuardedSink checkpoint interval; nonzero turns the safepoint gate on,
  /// and every mark stops the world and drains every batch (no checkpoint
  /// file is written).
  std::uint64_t checkpoint_every = 256;
  /// Run the guarded pipeline twice and require identical matrices.
  bool verify_determinism = true;
  /// Profiler micro-batch size for the guarded pipeline (0 = unbatched,
  /// max core::kMaxBatchSize). The harness drains pending micro-batches at
  /// its ordering points — lockstep lane hand-offs and free-mode barriers —
  /// so the serial oracle comparison stays exact at any batch size.
  std::uint32_t batch = 0;
};

struct StressReport {
  StressOptions options;
  std::uint64_t accesses = 0;        ///< access events in the schedule
  std::uint64_t churns = 0;          ///< thread exit/respawn cycles executed
  std::uint64_t reentrant_drops = 0; ///< sink re-entries (expected 0 here)
  std::uint64_t divergent_cells = 0; ///< guarded vs oracle cell mismatches
  std::uint64_t guarded_total = 0;   ///< total bytes, guarded pipeline
  std::uint64_t oracle_total = 0;    ///< total bytes, serial oracle
  bool deterministic = true;         ///< same-seed re-run matched cell-for-cell
  bool passed = false;               ///< zero divergence && deterministic
};

/// Runs one seeded stress scenario; see the file comment for semantics.
/// Throws std::invalid_argument on out-of-range options.
[[nodiscard]] StressReport run_stress(const StressOptions& options);

/// Runs the full seeds x thread-counts x (both modes) grid, printing one
/// result line per scenario to `os`. Returns true when every scenario
/// passed. `base` supplies steps/sampling/churn/checkpoint settings.
bool run_stress_sweep(const std::vector<std::uint64_t>& seeds,
                      const std::vector<int>& thread_counts,
                      const StressOptions& base, std::ostream& os);

}  // namespace commscope::resilience
