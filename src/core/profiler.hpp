// The CommScope profiler — the paper's primary contribution assembled.
//
// An AccessSink that runs Algorithm 1 inline in the accessing threads,
// attributes every detected inter-thread RAW dependency to the consuming
// thread's innermost annotated loop region, and exposes:
//   * the whole-program communication matrix,
//   * the nested per-loop matrices (Figures 6/7),
//   * the thread-load metric (Eq. 1, Figure 8),
//   * the phase timeline (dynamic behaviour, Section V.A.4),
//   * its own exact memory footprint (Figure 5) and event statistics.
//
// The detection backend is selectable: the bounded asymmetric signature
// memory (the paper's design) or the exact perfect-signature baseline used
// for ground truth in the FPR study.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/comm_matrix.hpp"
#include "core/flight_recorder.hpp"
#include "core/raw_detector.hpp"
#include "core/region_tree.hpp"
#include "instrument/sink.hpp"
#include "sigmem/exact_signature.hpp"
#include "support/memtrack.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perf_counters.hpp"

namespace commscope::core {

/// Detection backend selector.
enum class Backend {
  kAsymmetricSignature,  ///< bounded memory, tunable FPR (the paper's design)
  kExact,                ///< collision-free baseline (unbounded memory)
};

struct ProfilerOptions {
  /// Matrix dimension and signature payload capacity t. The paper runs 32.
  int max_threads = 32;
  /// Signature slot count n (both read and write signatures). The paper's
  /// reference configuration is 10'000'000; the default here is sized for
  /// test-scale workloads. Ignored by the exact backend.
  std::size_t signature_slots = 1u << 20;
  /// Bloom-filter false-positive target (paper: 0.001).
  double fp_rate = 0.001;
  Backend backend = Backend::kAsymmetricSignature;
  /// Phase-window volume in communicated bytes; 0 disables phase tracking.
  /// Not an epoch trigger: the recorder keeps phase windows apart.
  std::uint64_t phase_window_bytes = 0;
  /// Also classify WAR/WAW/RAR dependencies (the full DiscoPoP dependence
  /// set, Section III.B). Exact with the exact backend; approximate with the
  /// signature backend (bloom filters cannot enumerate readers — see
  /// AsymmetricDetector::on_read_classified). Costs one extra bloom scan per
  /// access, so it is off by default; Algorithm 1 needs RAW only.
  bool classify_dependences = false;
  /// Use sparse per-region matrices (Section VII future work): memory
  /// proportional to communicating thread pairs instead of n^2 per region,
  /// at the cost of a spinlocked update instead of one atomic add.
  bool sparse_region_matrices = false;
  /// Micro-batch capacity of the ingest pipeline: 0 runs Algorithm 1 inline
  /// per access (the paper's hot path); N in [1, kMaxBatchSize] buffers up
  /// to N accesses in a per-thread POD ring and drains them through the
  /// detector in one block, amortizing backend dispatch, region lookup and —
  /// via hash-ahead prefetching of the signature slabs — the random-access
  /// cache misses that dominate Figure 4's slowdown. Batches are drained on
  /// loop enter/exit (so region attribution is unchanged), on finalize(), and
  /// on every on_drain()/flush_all() point; results are bit-identical to the
  /// unbatched path because events stay in per-thread issue order.
  std::uint32_t batch_size = 0;
  /// Flight-recorder epoch triggers (time-resolved communication). All zero
  /// (the default) disables epochs — no ring, no mark matrix, and with
  /// phases off, zero hot-path cost beyond one predicted branch. Any nonzero
  /// trigger arms it: an epoch seals every `epoch_accesses` raw accesses
  /// and/or every `epoch_millis` milliseconds, whichever fires first.
  std::uint64_t epoch_accesses = 0;
  std::uint32_t epoch_millis = 0;
  /// Epoch ring capacity; 0 means kDefaultEpochRing when a trigger is set.
  std::uint32_t epoch_ring = 0;
  /// Stamp access-trigger epoch seals as kReplay (trace re-slice provenance).
  bool epoch_replay = false;
  /// Hardware counter attribution (`--perf`): each profiling thread opens a
  /// per-thread perf_event_open counter group, read at loop and epoch
  /// boundaries so regions and epochs carry cycles/instructions/LLC-miss/
  /// HITM deltas next to their comm-matrix deltas. Degrades gracefully
  /// (telemetry::PerfCounters) when perf is unavailable — or when the
  /// `perf-open-fail:N` clause of $COMMSCOPE_FAULT, read as the engine is
  /// built, refuses its opens; never affects the matrices themselves.
  bool perf = false;
};

/// Upper bound on ProfilerOptions::batch_size (the per-thread ring is
/// statically sized so the hot path never allocates).
inline constexpr std::uint32_t kMaxBatchSize = 256;

/// Inter-thread dependence census when classify_dependences is enabled.
/// `raw` duplicates ProfileStats::dependencies for convenience.
struct DependenceCounts {
  std::uint64_t raw = 0;
  std::uint64_t war = 0;
  std::uint64_t waw = 0;
  std::uint64_t rar = 0;
};

/// One recorded graceful-degradation downshift. Every action that trades
/// accuracy or granularity for survival is logged here and rendered as the
/// report's "degradations" provenance section, so Figure 2/5-style numbers
/// from a degraded run are never silently wrong.
struct DegradationEvent {
  std::uint64_t event_index = 0;  ///< accesses profiled (the event index)
  std::uint64_t mem_before = 0;   ///< tracked profiler bytes before
  std::uint64_t mem_after = 0;    ///< tracked profiler bytes after
  std::string reason;             ///< what tripped (budget, injected fault, ...)
  std::string action;             ///< what was downshifted
};

/// Aggregate event statistics.
struct ProfileStats {
  std::uint64_t accesses = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t dependencies = 0;  ///< inter-thread RAW edges recorded
};

class Profiler final : public instrument::AccessSink {
 public:
  explicit Profiler(ProfilerOptions options);

  [[nodiscard]] const ProfilerOptions& options() const noexcept {
    return options_;
  }

  // --- AccessSink ----------------------------------------------------------
  void on_thread_begin(int tid) override;
  void on_loop_enter(int tid, instrument::LoopId id) override;
  void on_loop_exit(int tid) override;
  /// The ring append, defined here so a wrapping sink (GuardedSink) inlines
  /// it: admit, two stores, and a drain when the ring fills. Unbatched, it
  /// runs Algorithm 1 at once (ingest_one).
  void on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                 instrument::AccessKind kind) override {
    if (!admit_tid(tid)) return;
    ThreadCtx& c = ctx(tid);
    if (options_.batch_size == 0) {
      ingest_one(tid, c, addr, size, kind);
      return;
    }
    const std::uint32_t i = c.batch_count;
    c.batch_addr[i] = addr;
    c.batch_meta[i] = size | (kind == instrument::AccessKind::kWrite
                                  ? AsymmetricDetector::kMetaWriteBit
                                  : 0u);
    if (++c.batch_count == options_.batch_size) flush_batch(tid);
  }
  void finalize() override;
  /// Drains `tid`'s pending micro-batch through the detector. Callable only
  /// from the thread driving `tid` (or while it is quiescent); a no-op when
  /// batching is off or the batch is empty.
  void on_drain(int tid) override;

  /// Drains every thread's pending micro-batch, in tid order. REQUIRES
  /// QUIESCENCE: no profiling thread may be concurrently appending (the
  /// stress harness calls this at barrier points; GuardedSink calls it
  /// inside its stop-the-world window before checkpoints and differencing).
  void flush_all();

  /// Events buffered in `tid`'s micro-batch but not yet through the detector.
  [[nodiscard]] std::uint32_t pending_events(int tid) const noexcept {
    if (static_cast<unsigned>(tid) >=
        static_cast<unsigned>(options_.max_threads)) {
      return 0;
    }
    return contexts_[static_cast<std::size_t>(tid)].batch_count;
  }

  // --- results -------------------------------------------------------------

  /// Whole-program communication matrix (aggregate over the region tree).
  [[nodiscard]] Matrix communication_matrix() const {
    return tree_.root().aggregate();
  }

  [[nodiscard]] const RegionTree& regions() const noexcept { return tree_; }

  /// Phase timeline (empty unless phase_window_bytes was set): the dense
  /// delta of each of the recorder's phase windows.
  [[nodiscard]] std::vector<Matrix> phase_timeline() const {
    std::vector<Matrix> windows;
    for (const EpochSample& w : recorder_.phase_windows().epochs) {
      windows.push_back(w.dense(options_.max_threads));
    }
    return windows;
  }

  /// Raw-access counts per phase window, aligned with phase_timeline()
  /// (precision: FlightRecorder::phase_windows()).
  [[nodiscard]] std::vector<std::uint64_t> phase_window_accesses() const {
    std::vector<std::uint64_t> accesses;
    for (const EpochSample& w : recorder_.phase_windows().epochs) {
      accesses.push_back(w.last_access - w.first_access);
    }
    return accesses;
  }

  /// The flight recorder (epoch-disabled unless an epoch_* trigger was set;
  /// it also holds the phase windows). GuardedSink uses the mutable handle
  /// to force checkpoint boundaries and persist the ring.
  [[nodiscard]] const FlightRecorder& recorder() const noexcept {
    return recorder_;
  }
  [[nodiscard]] FlightRecorder& recorder() noexcept { return recorder_; }

  /// Surviving epoch history, oldest first (empty when the recorder is off).
  [[nodiscard]] EpochTimeline epoch_timeline() const {
    return recorder_.timeline();
  }

  /// The hardware counter engine, or nullptr when ProfilerOptions::perf was
  /// off. A non-null engine may still be degraded (available() == false) —
  /// the report renders that as provenance, never as zeros.
  [[nodiscard]] telemetry::PerfCounters* perf_counters() const noexcept {
    return perf_.get();
  }

  /// Race-free while a run is live (`top` polls it); buffered accesses count
  /// once drained. With every batch drained, `accesses` is the event index.
  [[nodiscard]] ProfileStats stats() const;

  /// Events dropped because their tid was outside [0, max_threads): a
  /// negative id or one beyond the matrix dimension. Dropping with a count
  /// is the graceful-degradation contract — indexing with such a tid would
  /// corrupt per-thread state. Surfaced as report provenance when nonzero.
  [[nodiscard]] std::uint64_t dropped_events() const noexcept {
    return dropped_events_.load(std::memory_order_relaxed);
  }

  /// Dependence census (all zeros unless classify_dependences was set).
  [[nodiscard]] DependenceCounts dependence_counts() const;

  /// Exact bytes held by profiler data structures (signatures + region tree
  /// matrices) — the quantity Figure 5 plots.
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return memory_.current();
  }
  [[nodiscard]] const support::MemoryTracker& memory() const noexcept {
    return memory_;
  }
  /// Mutable tracker access for the resilience layer (observer installation).
  [[nodiscard]] support::MemoryTracker& memory() noexcept { return memory_; }

  /// Direct access to the asymmetric detector (null for the exact backend).
  [[nodiscard]] const AsymmetricDetector* signature_detector() const noexcept {
    return std::get_if<AsymmetricDetector>(&backend_);
  }

  // --- graceful degradation (resilience) -----------------------------------
  //
  // Primitive downshift actions invoked by resilience::ResourceGuard when a
  // budget is breached. Each returns false when inapplicable (wrong backend,
  // already applied, at the floor), records a DegradationEvent on success,
  // and REQUIRES QUIESCENCE: no profiling thread may be inside an event
  // callback while a downshift replaces the backend or region matrices
  // (resilience::GuardedSink provides the safepoint).

  /// Exact backend -> bounded asymmetric signature. Tracked last-writer and
  /// reader sets migrate into the signature memories so first-touch
  /// accounting carries over (modulo bloom approximation); memory drops from
  /// footprint-proportional to the fixed signature size.
  bool degrade_exact_to_signature(std::uint64_t event_index,
                                  const std::string& reason);

  /// Dense per-region matrices -> sparse representation.
  bool degrade_regions_to_sparse(std::uint64_t event_index,
                                 const std::string& reason);

  /// Halves the signature slot count (floor 4096). Bloom/last-writer state
  /// cannot be rehashed across slot counts, so the detector restarts empty:
  /// already-counted first touches may be counted again. The provenance
  /// entry records that caveat.
  bool degrade_halve_slots(std::uint64_t event_index,
                           const std::string& reason);

  /// Appends an externally applied downshift (e.g. the guard raising a
  /// sampling stride or suppressing events) to the provenance log. Every
  /// degradation — internal or external — funnels through here so the
  /// telemetry counter and trace instant cannot drift from the provenance.
  void record_degradation(DegradationEvent event);

  /// Downshifts applied so far, in order. Callers of the degrade_*/record
  /// mutators serialize against readers (the guard's maintenance lock).
  [[nodiscard]] const std::vector<DegradationEvent>& degradations()
      const noexcept {
    return degradations_;
  }

 private:
  /// Per-thread mutable state, cache-line padded. The micro-batch ring is
  /// embedded (not heap-allocated) so appending is a store per field into
  /// already-resident memory, and kept as a structure of arrays: the drain
  /// hands the contiguous address lane straight to the SIMD batch hash
  /// (murmur_mix64_batch) without a deinterleaving copy. The access kind is
  /// packed into bit 31 of the byte-count lane
  /// (AsymmetricDetector::kMetaWriteBit) — two stores per buffered event
  /// instead of three, and one less lane for the drain to stream. Access
  /// sizes are capped far below 2^31 by every sink caller.
  struct alignas(64) ThreadCtx {
    std::vector<RegionNode*> stack;
    /// Cumulative (scaled) hardware counter reading at this thread's last
    /// loop boundary; the next boundary charges `now - perf_last` to the
    /// region that was innermost across the segment. Untouched when the
    /// perf engine is off.
    telemetry::PerfDelta perf_last;
    /// Written only by the owning thread (count_own); read by stats().
    std::atomic<std::uint64_t> accesses{0};
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> writes{0};
    /// Written only by the owning thread (see count_dependencies); read by
    /// whichever thread seals a recorder window.
    std::atomic<std::uint64_t> dependencies{0};
    std::uint64_t war = 0;
    std::uint64_t waw = 0;
    std::uint64_t rar = 0;
    std::uint32_t batch_count = 0;
    std::uintptr_t batch_addr[kMaxBatchSize];
    std::uint32_t batch_meta[kMaxBatchSize];
  };

  ProfilerOptions options_;
  support::MemoryTracker memory_;
  std::variant<AsymmetricDetector, sigmem::ExactSignature> backend_;
  RegionTree tree_;
  // Declared before recorder_: the recorder's options capture perf_.get(),
  // so the engine must outlive (and be constructed before) the recorder.
  std::unique_ptr<telemetry::PerfCounters> perf_;
  FlightRecorder recorder_;
  std::unique_ptr<ThreadCtx[]> contexts_;
  std::vector<DegradationEvent> degradations_;
  std::atomic<std::uint64_t> dropped_events_{0};
  // Cached sink.batch.* metric handles (registration takes a spinlock; the
  // flush path must stay lock-free).
  telemetry::Counter* batch_flushes_ = nullptr;
  telemetry::Counter* batch_events_ = nullptr;
  telemetry::Counter* batch_partial_ = nullptr;

  [[nodiscard]] ThreadCtx& ctx(int tid) noexcept {
    return contexts_[static_cast<std::size_t>(tid)];
  }

  /// The recorder's cut source: the region tree's direct matrices summed
  /// into the whole-program matrix and into bytes per loop id, plus the
  /// threads' dependency counts.
  [[nodiscard]] RecorderCut recorder_cut() const;

  /// Adds `k` to one of the calling thread's own counters: a plain load and
  /// store, no read-modify-write, as only the owning thread writes it.
  static void count_own(std::atomic<std::uint64_t>& n,
                        std::uint64_t k) noexcept {
    n.store(n.load(std::memory_order_relaxed) + k, std::memory_order_relaxed);
  }

  /// Books `k` dependencies the calling thread already added to its region
  /// matrix. A plain load and store, no read-modify-write: only the owning
  /// thread writes the count. The store releases the matrix adds before it,
  /// so a cut that sees the count also sees their bytes.
  static void count_dependencies(ThreadCtx& c, std::uint64_t k) noexcept {
    c.dependencies.store(c.dependencies.load(std::memory_order_relaxed) + k,
                         std::memory_order_release);
  }

  /// Runs Algorithm 1 (plus attribution/classification) for one access.
  /// Shared verbatim by the unbatched hot path and the generic batch drain,
  /// which is what makes the two modes bit-identical by construction. Out
  /// of line, like flush_batch, so the inlined on_access stays small.
  void ingest_one(int tid, ThreadCtx& c, std::uintptr_t addr,
                  std::uint32_t size, instrument::AccessKind kind);

  /// Drains `tid`'s micro-batch through AsymmetricDetector::drain_batch
  /// (SIMD batch hash, slot-repeat collapsing, gathered signature loads) on
  /// the signature fast path, or through ingest_one per event otherwise.
  void flush_batch(int tid);

  /// Reads `tid`'s hardware counter group and charges the delta since the
  /// thread's previous boundary to its current innermost region. Called at
  /// every loop enter/exit BEFORE the region stack mutates, so the segment
  /// between two boundaries lands on the region that was active during it —
  /// the same exclusive-attribution rule the comm matrices use. A single
  /// predicted branch when the engine is off.
  void perf_boundary(int tid, ThreadCtx& c) noexcept {
    if (perf_ == nullptr) [[likely]] return;
    const telemetry::PerfDelta now = perf_->read_thread(tid);
    telemetry::PerfDelta delta = now.since(c.perf_last);
    // First boundary after attach: the baseline has no present bits yet, so
    // since() would erase provenance; the full reading is the delta.
    if (c.perf_last.present == 0) delta.present = now.present;
    if (!c.stack.empty()) c.stack.back()->add_perf(delta);
    c.perf_last = now;
  }

  /// True when `tid` indexes a real context; otherwise counts the drop.
  [[nodiscard]] bool admit_tid(int tid) noexcept {
    if (static_cast<unsigned>(tid) <
        static_cast<unsigned>(options_.max_threads)) [[likely]] {
      return true;
    }
    dropped_events_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
};

}  // namespace commscope::core
