// Epoch flight recorder — time-resolved communication capture.
//
// The paper's central artifact is a *static* per-loop communication matrix,
// but its own phase analysis (Figures 6/7, Section V.A.4) shows that
// communication is strongly time-varying. The flight recorder makes that
// visible on every run: the profiler periodically seals an *epoch* — a
// sparse delta of the communication matrix accumulated since the previous
// boundary, tagged with the loops that produced it — into a bounded
// in-memory ring. Like the telemetry tracer's rings, the ring never grows:
// when full, the oldest epoch is overwritten and the loss is counted, so an
// always-on recorder is safe on an unbounded run.
//
// Epoch boundaries are configurable via ProfilerOptions: every N access
// events and/or every T milliseconds — plus forced boundaries at
// GuardedSink checkpoints and finalize(), which also persist the ring to a
// sidecar file so epochs survive crashes alongside the checkpoint itself.
//
// A second partition of the same dependency stream holds phase windows
// (Section V.A.4), sealed right after the dependency that fills a fixed
// volume and at finalize. enabled(), epochs_sealed(), the sidecar, the
// recorder.* counters and the hardware counter deltas see epochs only.
//
// A dependency is booked once, into its loop region's matrix; the recorder
// never sees it. Every seal reads one RecorderCut — the whole-program matrix
// summed over the region tree's direct matrices, the bytes per loop id
// summed the same way, and the total dependency count — and stores the cut
// minus the partition's previous cut (its mark), which the cut then
// replaces. So the deltas of a partition telescope: they sum to the final
// matrix by construction, at any thread count (the paper's parent-as-sum-of-
// children rule, Section V.A.4, taken over time).
//
// Cost model mirrors the tracer:
//   * Inactive (no epoch trigger, no phase volume — the default): the hot
//     path is one branch on a plain bool; nothing is allocated, ever.
//   * Active: count_access() increments a thread-local counter and touches
//     the shared atomic only once per `stride_` events (stride adapts to the
//     epoch granularity, so fine-grained triggers stay exact while coarse
//     ones avoid cache-line ping-pong between counting threads). Epoch
//     boundaries are exact to within stride_ * threads accesses.
//   * on_dependency() runs once per dependency, which is not rare:
//     dependencies are a third of ocean_ncp's accesses and a sixth of
//     radix's. It only advances the phase volume (one branch with phases
//     off), counted in the thread-local slot and published to one atomic
//     once per `volume_stride_` bytes (1/64th of the window, at most 1 KiB).
//     One thread gets exact windows; with T threads a window runs up to
//     about T * volume_stride_ bytes long or short of its volume (see
//     phase_windows()). A seal is the only cross-thread point: under mu_ it
//     walks the region tree, taking each node's child and sparse-matrix
//     spinlocks in turn, so nothing may take mu_ while holding those.
//   * Memory: each recording partition's mark matrix is charged to the
//     tracker at construction, each ring slot when a sealed sample first
//     occupies it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/comm_matrix.hpp"
#include "instrument/loop_registry.hpp"
#include "support/memtrack.hpp"
#include "telemetry/perf_counters.hpp"

namespace commscope::core {

/// Why an epoch was sealed (serialized into the epoch file as provenance).
enum class EpochSeal : std::uint8_t {
  kAccesses,    ///< the every-N-accesses trigger fired
  kBatches,     ///< retired batch trigger; still parsed from older files
  kTimer,       ///< the every-T-milliseconds trigger fired
  kCheckpoint,  ///< GuardedSink checkpoint boundary
  kFinalize,    ///< end of run
  kReplay,      ///< fixed-count re-slice of an existing trace
  kVolume,      ///< a phase window reached its communication volume
};

[[nodiscard]] const char* to_string(EpochSeal reason) noexcept;
/// Inverse of to_string; throws std::runtime_error on an unknown name.
[[nodiscard]] EpochSeal epoch_seal_from_string(const std::string& s);

/// One nonzero cell of an epoch's sparse delta matrix.
struct EpochCell {
  std::uint16_t producer = 0;
  std::uint16_t consumer = 0;
  std::uint64_t bytes = 0;

  [[nodiscard]] bool operator==(const EpochCell&) const noexcept = default;
};

/// Bytes an epoch attributed to one annotated loop (consumer side).
struct EpochLoopShare {
  instrument::LoopId loop = instrument::kNoLoop;  ///< kNoLoop = root region
  std::uint64_t bytes = 0;

  [[nodiscard]] bool operator==(const EpochLoopShare&) const noexcept = default;
};

/// One sealed epoch: the communication delta between two boundaries.
struct EpochSample {
  std::uint64_t index = 0;         ///< global epoch number (monotonic)
  std::uint64_t first_access = 0;  ///< access count at epoch start
  std::uint64_t last_access = 0;   ///< access count at seal
  std::uint64_t dependencies = 0;  ///< RAW edges recorded in the window
  std::uint64_t bytes = 0;         ///< total delta volume
  EpochSeal reason = EpochSeal::kAccesses;
  /// Hardware counter delta for this window (all-zero with present == 0
  /// when no perf engine was attached — the epoch file then serializes in
  /// the counterless v1 format). Carried through serve merge and WAL replay
  /// alongside the comm-matrix delta it grounds.
  telemetry::PerfDelta perf;
  std::vector<EpochCell> cells;        ///< sorted (producer, consumer)
  std::vector<EpochLoopShare> loops;   ///< sorted by loop id

  /// Rebuilds the dense delta matrix (dimension `threads`).
  [[nodiscard]] Matrix dense(int threads) const;

  [[nodiscard]] bool operator==(const EpochSample&) const noexcept = default;
};

/// A run's surviving epoch history plus the bookkeeping that makes partial
/// histories honest: `sealed` counts every epoch ever sealed, `dropped` the
/// ones overwritten out of the ring — sealed == dropped + epochs.size().
struct EpochTimeline {
  int threads = 0;
  std::uint64_t sealed = 0;
  std::uint64_t dropped = 0;
  std::vector<EpochSample> epochs;  ///< oldest to newest surviving
  /// Loop-id -> label pairs for every loop referenced by any epoch, so a
  /// timeline written in one process renders with names in another.
  std::vector<std::pair<std::uint32_t, std::string>> loop_labels;

  /// Sum of the surviving epochs' deltas (a lower bound on the run's matrix
  /// when dropped > 0, exact otherwise).
  [[nodiscard]] Matrix total() const;
  /// Label for `loop`, falling back to "loop#<id>" / "<root>".
  [[nodiscard]] std::string label_of(std::uint32_t loop) const;
};

/// Recorder configuration (lifted from ProfilerOptions by the profiler).
struct FlightRecorderOptions {
  int threads = 0;
  std::uint64_t every_accesses = 0;  ///< seal every N access events; 0 = off
  std::uint32_t every_millis = 0;    ///< seal every T milliseconds; 0 = off
  std::uint32_t capacity = 0;        ///< ring size; 0 = default when enabled
  /// Phase partition: seal a window right after the dependency that brings
  /// its volume to this many bytes; 0 = off. Not an epoch trigger.
  std::uint64_t phase_window_bytes = 0;
  /// Re-slice mode (`commscope replay --epochs=N`): access-trigger seals are
  /// stamped kReplay so a re-sliced timeline is distinguishable from a live
  /// recording.
  bool replay = false;
  /// Optional hardware counter engine (owned by the profiler). When set,
  /// every seal stamps the epoch with the counter delta accumulated since
  /// the previous boundary, so hardware counts partition exactly like the
  /// comm-matrix deltas do.
  telemetry::PerfCounters* perf = nullptr;

  /// True when an epoch trigger is set (the phase volume is not one).
  [[nodiscard]] bool enabled() const noexcept {
    return every_accesses != 0 || every_millis != 0;
  }
};

/// Cumulative totals of the dependency stream at one instant; a seal stores
/// the difference of two cuts.
struct RecorderCut {
  Matrix matrix;                      ///< whole-program bytes by (p, c)
  std::vector<EpochLoopShare> loops;  ///< bytes by loop id, sorted by id
  std::uint64_t dependencies = 0;     ///< RAW edges
};

/// Reads the current cut. Called under the recorder's lock at every seal;
/// its matrix must have the recorder's thread count as dimension.
using CutSource = std::function<RecorderCut()>;

/// Default ring capacity when a trigger is set but no capacity was given.
inline constexpr std::uint32_t kDefaultEpochRing = 512;
/// Hard ring ceiling (the recorder is bounded by contract); phase windows
/// always use it.
inline constexpr std::uint32_t kMaxEpochRing = 1u << 20;

class FlightRecorder {
 public:
  /// An inactive recorder (no epoch trigger, no phase volume) allocates
  /// nothing and its hot-path calls reduce to one branch. `cut` is read at
  /// every seal (the profiler's region tree; tests hand-feed one).
  /// `tracker` (optional) is charged for the marks and the occupied ring
  /// slots so Figure 5 numbers stay honest.
  FlightRecorder(FlightRecorderOptions options, CutSource cut,
                 support::MemoryTracker* tracker = nullptr);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// True when the epoch partition records (an epoch trigger is set).
  [[nodiscard]] bool enabled() const noexcept { return epochs_.capacity != 0; }
  /// True when either partition records.
  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Counts one raw access event and seals an epoch when the access or
  /// timer trigger is due. Thread-safe. Counts coalesce in a thread-local
  /// accumulator and publish to the shared atomic every `stride_` events —
  /// with many threads a per-event fetch_add on one cache line dominates
  /// the recorder's cost, and epoch boundaries only need to be exact to
  /// within stride_ * threads events (stride_ is 1 when every_accesses is
  /// small, so fine-grained triggers remain exact). Up to stride_ - 1
  /// events per thread may still be pending at a flush boundary; they fold
  /// into the next window's access count (matrix deltas are unaffected —
  /// they come from the cut, not this counter).
  void count_access() noexcept {
    if (!active_) return;
    TlPending& tl = own_slot();
    if (++tl.pending < stride_) return;
    tl.pending = 0;
    publish_accesses(stride_);
  }

  /// count_access() `k` times over: publishes the same batches at the same
  /// points, so seals land exactly where the per-event calls put them.
  void count_accesses(std::uint32_t k) noexcept {
    if (!active_) return;
    TlPending& tl = own_slot();
    while (k >= stride_ - tl.pending) {
      k -= stride_ - tl.pending;
      tl.pending = 0;
      publish_accesses(stride_);
    }
    tl.pending += k;
  }

  /// Advances the phase volume by one dependency of `bytes`, which the cut
  /// source must already hold, and seals the phase window it fills.
  /// Thread-safe and lock-free below the seal: touches the shared volume
  /// atomic once per volume stride. One branch when phases are off.
  void on_dependency(std::uint64_t bytes) noexcept {
    if (options_.phase_window_bytes == 0) return;
    TlPending& tl = own_slot();
    tl.volume += bytes;
    if (tl.volume >= volume_stride_) {
      tl.seen =
          volume_.fetch_add(tl.volume, std::memory_order_relaxed) + tl.volume;
      tl.volume = 0;
    }
    if (tl.seen + tl.volume >= due_.load(std::memory_order_relaxed)) {
      seal_volume();
    }
  }

  /// Seals the current partial epoch (if accesses or dependencies advanced
  /// since its mark) with an explicit reason — the checkpoint/finalize
  /// boundary hook. kFinalize also seals the open phase window when its
  /// bytes advanced.
  void flush(EpochSeal reason) noexcept;

  /// Epochs sealed / overwritten so far, and phase windows overwritten.
  [[nodiscard]] std::uint64_t epochs_sealed() const noexcept;
  [[nodiscard]] std::uint64_t epochs_dropped() const noexcept;
  [[nodiscard]] std::uint64_t phase_windows_dropped() const noexcept;

  /// Copy of the surviving history, oldest first, with loop labels resolved
  /// from the process's LoopRegistry.
  [[nodiscard]] EpochTimeline timeline() const;

  /// The phase partition, oldest first, loop labels unresolved. With one
  /// thread driving the recorder, window volumes and access counts
  /// (last_access - first_access) are exact. With several, a window seals
  /// on the sealing thread's view of the volume: the published count as it
  /// last saw it plus its own unpublished bytes. Each other thread's
  /// unpublished bytes (below the volume stride) may land in a window
  /// before they count toward one, and the published count may have moved
  /// since the sealing thread last looked, so a window holds W bytes give
  /// or take threads * volume stride, plus the dependency that crossed W.
  /// Access counts blur the same way by each thread's pending accesses.
  /// Whatever the thread count, a window's matrix is what the region tree
  /// gained between its two cuts, so the windows sum to the final matrix.
  [[nodiscard]] EpochTimeline phase_windows() const;

 private:
  /// Timer-trigger poll granularity: the steady_clock read happens at most
  /// once per (mask+1) accesses, keeping the hot path clock-free.
  static constexpr std::uint64_t kTimerCheckMask = 1023;

  /// Per-thread pending-count slot. `gen` ties the slot to one recorder
  /// instance by generation number, not address — a recorder constructed at
  /// a freed recorder's address must not inherit its residue.
  struct TlPending {
    std::uint64_t gen = 0;
    std::uint32_t pending = 0;  ///< access events not yet published
    std::uint64_t volume = 0;   ///< dependency bytes not yet published
    std::uint64_t seen = 0;     ///< published volume as this thread last saw it
  };

  static TlPending& pending_slot() noexcept {
    thread_local TlPending tl;
    return tl;
  }

  /// The calling thread's slot for this recorder (reset if it last served
  /// another one).
  TlPending& own_slot() const noexcept {
    TlPending& tl = pending_slot();
    if (tl.gen != gen_) tl = TlPending{gen_};
    return tl;
  }

  /// One windowed-delta partition: the ring its sealed samples land in and
  /// the cut its open window started at, guarded by mu_. `first_access` is
  /// atomic because the epoch triggers also read it without the lock.
  struct Partition {
    std::uint32_t capacity = 0;  ///< ring ceiling; 0 = off
    std::atomic<std::uint64_t> first_access{0};
    RecorderCut mark;
    std::uint64_t sealed = 0;
    std::uint64_t dropped = 0;
    std::vector<EpochSample> ring;  ///< grows to capacity, then ring order
    std::size_t head = 0;           ///< oldest slot once the ring is full
  };

  /// Adds a coalesced batch to the shared counter and runs the seal/timer
  /// trigger checks (the cold once-per-stride_ half of count_access()).
  void publish_accesses(std::uint32_t batch) noexcept;

  void seal(EpochSeal reason) noexcept;
  void timer_tick() noexcept;
  /// Re-checks the phase volume under mu_ and seals the window if it is
  /// still due (another thread may have sealed it first).
  void seal_volume() noexcept;
  /// Seals the open epoch at `cut` under mu_; trigger reasons re-check
  /// their condition first (in seal()) so concurrent crossers produce one
  /// epoch.
  void seal_epoch_locked(EpochSeal reason, const RecorderCut& cut);
  /// Seals the open phase window at `cut` under mu_, counting the calling
  /// thread's unpublished accesses and bytes in without publishing them (no
  /// epoch moves), and sets the volume at which the next window is due.
  void seal_phase_locked(EpochSeal reason, const RecorderCut& cut);
  /// Stores `cut` minus `w`'s mark in its ring as a sample ending at
  /// `last_access`, and opens the next window there with `cut` as its mark;
  /// returns true when the sample overwrote the oldest one.
  bool seal_locked(Partition& w, EpochSeal reason, std::uint64_t last_access,
                   const telemetry::PerfDelta& perf, const RecorderCut& cut);
  [[nodiscard]] EpochTimeline copy_ring(const Partition& w) const;

  FlightRecorderOptions options_;
  CutSource cut_;
  bool active_ = false;
  support::MemoryTracker* tracker_ = nullptr;
  std::uint64_t tracked_bytes_ = 0;
  std::uint64_t gen_ = 0;     ///< this instance's TlPending generation
  std::uint32_t stride_ = 1;  ///< thread-local access coalescing width
  std::uint64_t volume_stride_ = 1;  ///< thread-local volume coalescing width

  std::atomic<std::uint64_t> accesses_{0};
  /// Read by the timer poll without the lock, written by every epoch seal.
  std::atomic<std::uint64_t> last_seal_ns_{0};
  /// Published phase volume (bytes), on a line of its own: it is the one
  /// shared word the dependency path writes, once per volume stride.
  alignas(64) std::atomic<std::uint64_t> volume_{0};
  /// Volume at which the open phase window is due: written under mu_ by
  /// each phase seal, read without it by every dependency. A line of its
  /// own too: beside volume_, every thread's volume publish would evict it
  /// from every other dependency path's cache.
  alignas(64) std::atomic<std::uint64_t> due_{0};

  alignas(64) mutable std::mutex mu_;
  Partition epochs_;
  Partition phases_;
};

}  // namespace commscope::core
