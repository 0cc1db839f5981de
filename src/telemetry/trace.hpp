// Phase-aware event tracer for the profiler's own runtime activity.
//
// Records what the *instrument* does — loop region enter/exit, safepoint
// flushes, quiesce windows, checkpoint writes, degradation transitions —
// as timestamped spans in bounded per-thread ring buffers, and exports them
// as Chrome trace-event JSON (loadable in chrome://tracing and Perfetto) or
// a plain-text snapshot. This is the Caliper/Inspector idea applied to
// CommScope itself: the measurement instrument leaves a timeline of its own
// behaviour next to the numbers it reports.
//
// Cost model:
//   * Disabled (the default): every record call is one relaxed atomic load
//     and a branch. No allocation, ever — all ring storage is static.
//   * Enabled: a record is a steady_clock read plus one store into the
//     calling thread's ring (single-writer, so no CAS); ring full -> oldest
//     events are overwritten and the overwrite is counted, never unbounded
//     growth.
//
// Threads map to rings by first-record claim (thread_local cache). Rings
// are a fixed pool; threads beyond the pool drop events into a counter.
// Export runs after the traced threads have quiesced (finalize paths).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>

namespace commscope::telemetry {

/// Runtime phase a trace event belongs to (rendered as the Chrome "cat").
enum class SpanCat : std::uint8_t {
  kLoop,        ///< annotated loop region (paper's region tree)
  kRun,         ///< whole workload / pipeline stages
  kFlush,       ///< GuardedSink::flush (exit/fork/maintenance serialization)
  kQuiesce,     ///< stop-the-world windows
  kCheckpoint,  ///< checkpoint serialization + IO
  kGuard,       ///< ResourceGuard budget checks
  kDegrade,     ///< degradation-ladder transitions
  kStress,      ///< stress-harness scenarios
  kBatch,       ///< micro-batch drains through the detector (batch_flush)
  kEpoch,       ///< flight-recorder epoch seals (time-resolved communication)
  kServe,       ///< aggregation-daemon events (drops, reaps, ladder moves)
  kWal,         ///< durability events (recovery, compaction, ladder moves)
};

[[nodiscard]] const char* to_string(SpanCat cat) noexcept;

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

class Tracer {
 public:
  /// Starts a capture session: clears all rings and re-zeros the timebase.
  /// Idempotent while enabled.
  static void enable();
  static void disable() noexcept;

  [[nodiscard]] static bool enabled() noexcept {
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since enable(). 0 when disabled.
  [[nodiscard]] static std::uint64_t now_ns() noexcept;

  // Record calls are no-ops while disabled; the enabled() check inlines at
  // the call site so the disabled path is one relaxed load and a predicted
  // branch. `name` must be a static string (the ring stores the pointer).
  // `tid` is the dense profiler thread id for display; -1 means "runtime
  // thread", displayed on its own lane.
  //
  // `ctx` is the cross-process trace context: a nonzero id (minted by the
  // epoch shipper, carried on the wire, stamped by the daemon) exported as
  // Chrome `args.ctx` so one epoch's journey is followable across process
  // boundaries. `arg` is a free event-scoped value (epoch index, peer
  // clock reading) exported as `args.v`; both are 0 (omitted) by default.
  static void begin(const char* name, SpanCat cat, int tid = -1) noexcept {
    if (enabled()) [[unlikely]] begin_impl(name, cat, tid);
  }
  static void end(SpanCat cat, int tid = -1) noexcept {
    if (enabled()) [[unlikely]] end_impl(cat, tid);
  }
  static void instant(const char* name, SpanCat cat, int tid = -1,
                      std::uint64_t ctx = 0, std::uint64_t arg = 0) noexcept {
    if (enabled()) [[unlikely]] instant_impl(name, cat, tid, ctx, arg);
  }
  /// A closed span recorded in one event (start `ts_ns`, length `dur_ns`).
  static void complete(const char* name, SpanCat cat, int tid,
                       std::uint64_t ts_ns, std::uint64_t dur_ns,
                       std::uint64_t ctx = 0,
                       std::uint64_t arg = 0) noexcept {
    if (enabled()) [[unlikely]] {
      complete_impl(name, cat, tid, ts_ns, dur_ns, ctx, arg);
    }
  }
  /// Loop spans carry the LoopId; the exporter resolves it to a label via
  /// the caller-supplied resolver (telemetry sits below the loop registry).
  static void loop_begin(int tid, std::uint32_t loop_id) noexcept {
    if (enabled()) [[unlikely]] loop_begin_impl(tid, loop_id);
  }
  static void loop_end(int tid) noexcept {
    if (enabled()) [[unlikely]] loop_end_impl(tid);
  }

  /// Events currently captured across all rings (post-overwrite).
  [[nodiscard]] static std::uint64_t captured() noexcept;
  /// Events lost to ring overwrites or ring-pool exhaustion.
  [[nodiscard]] static std::uint64_t dropped() noexcept;

  using LoopResolver = std::function<std::string(std::uint32_t)>;

  /// Chrome trace-event JSON ({"traceEvents":[...]}), events sorted by
  /// timestamp. `resolve` maps LoopIds to labels; unset -> "loop#<id>".
  static void write_chrome_trace(std::ostream& os,
                                 const LoopResolver& resolve = {});
  /// Plain-text snapshot: one line per event, sorted by timestamp.
  static void write_text(std::ostream& os, const LoopResolver& resolve = {});

 private:
  static void begin_impl(const char* name, SpanCat cat, int tid) noexcept;
  static void end_impl(SpanCat cat, int tid) noexcept;
  static void instant_impl(const char* name, SpanCat cat, int tid,
                           std::uint64_t ctx, std::uint64_t arg) noexcept;
  static void complete_impl(const char* name, SpanCat cat, int tid,
                            std::uint64_t ts_ns, std::uint64_t dur_ns,
                            std::uint64_t ctx, std::uint64_t arg) noexcept;
  static void loop_begin_impl(int tid, std::uint32_t loop_id) noexcept;
  static void loop_end_impl(int tid) noexcept;
};

/// RAII complete-span: measures construction-to-destruction when the tracer
/// is enabled, does nothing (and allocates nothing) otherwise.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, SpanCat cat, int tid = -1) noexcept
      : armed_(Tracer::enabled()),
        tid_(tid),
        cat_(cat),
        name_(name),
        t0_(armed_ ? Tracer::now_ns() : 0) {}
  ~ScopedSpan() {
    if (armed_) {
      Tracer::complete(name_, cat_, tid_, t0_, Tracer::now_ns() - t0_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool armed_;
  int tid_;
  SpanCat cat_;
  const char* name_;
  std::uint64_t t0_;
};

}  // namespace commscope::telemetry
