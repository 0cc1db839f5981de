#include "core/flight_recorder.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace commscope::core {

const char* to_string(EpochSeal reason) noexcept {
  switch (reason) {
    case EpochSeal::kAccesses: return "accesses";
    case EpochSeal::kBatches: return "batches";
    case EpochSeal::kTimer: return "timer";
    case EpochSeal::kCheckpoint: return "checkpoint";
    case EpochSeal::kFinalize: return "finalize";
    case EpochSeal::kReplay: return "replay";
    case EpochSeal::kVolume: return "volume";
  }
  return "?";
}

EpochSeal epoch_seal_from_string(const std::string& s) {
  for (const EpochSeal r :
       {EpochSeal::kAccesses, EpochSeal::kBatches, EpochSeal::kTimer,
        EpochSeal::kCheckpoint, EpochSeal::kFinalize, EpochSeal::kReplay,
        EpochSeal::kVolume}) {
    if (s == to_string(r)) return r;
  }
  throw std::runtime_error("unknown epoch seal reason '" + s + "'");
}

Matrix EpochSample::dense(int threads) const {
  Matrix m(threads);
  for (const EpochCell& c : cells) {
    if (c.producer < threads && c.consumer < threads) {
      m.at(c.producer, c.consumer) += c.bytes;
    }
  }
  return m;
}

Matrix EpochTimeline::total() const {
  Matrix m(threads);
  if (threads <= 0) return m;
  for (const EpochSample& e : epochs) {
    for (const EpochCell& c : e.cells) {
      if (c.producer < threads && c.consumer < threads) {
        m.at(c.producer, c.consumer) += c.bytes;
      }
    }
  }
  return m;
}

std::string EpochTimeline::label_of(std::uint32_t loop) const {
  if (loop == instrument::kNoLoop) return "<root>";
  for (const auto& [id, label] : loop_labels) {
    if (id == loop) return label;
  }
  return "loop#" + std::to_string(loop);
}

namespace {

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonic source for TlPending generations (0 stays "no recorder").
std::atomic<std::uint64_t> g_recorder_gen{0};

/// Widest thread-local coalescing stride. At width w the shared counter is
/// touched once per w events and epoch boundaries are exact to within
/// w * threads events — negligible against any practical granularity.
constexpr std::uint32_t kMaxCountStride = 64;

/// Widest thread-local volume stride, in bytes. Phase windows reach it at
/// 64 KiB (the stride is 1/64th of the window), where the multi-thread
/// slack of threads * stride stays a few percent of the window.
constexpr std::uint64_t kMaxVolumeStride = 1024;

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderOptions options, CutSource cut,
                               support::MemoryTracker* tracker)
    : options_(options),
      cut_(std::move(cut)),
      active_(options.enabled() || options.phase_window_bytes != 0),
      tracker_(tracker) {
  if (!active_) return;  // inactive: allocate nothing, ever
  gen_ = g_recorder_gen.fetch_add(1, std::memory_order_relaxed) + 1;
  // Coalescing stride: never wider than 1/16th of the access granularity, so
  // every_accesses <= 16 counts exactly (the trigger-precision tests) while
  // coarse real-run settings get the full contention reduction. Recorders
  // without an access trigger have nothing to blur; use the full width.
  stride_ = kMaxCountStride;
  if (options_.every_accesses != 0) {
    stride_ = static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
        options_.every_accesses / 16, 1, kMaxCountStride));
  }
  // The volume stride follows the phase window the same way: small windows
  // publish every dependency, large ones coalesce up to the cap.
  volume_stride_ = std::clamp<std::uint64_t>(options_.phase_window_bytes / 64,
                                             1, kMaxVolumeStride);
  due_.store(options_.phase_window_bytes, std::memory_order_relaxed);
  if (options_.enabled()) {
    epochs_.capacity = std::min(
        options_.capacity == 0 ? kDefaultEpochRing : options_.capacity,
        kMaxEpochRing);
  }
  if (options_.phase_window_bytes != 0) phases_.capacity = kMaxEpochRing;
  // Each recording partition starts at the empty cut. Charge the marks'
  // matrices now and each ring slot as it fills. Per-epoch sparse cell
  // payloads are bounded by capacity * threads^2 but typically tiny; they
  // ride untracked like the tracer's static rings, as do the marks' few
  // loop shares.
  for (Partition* w : {&epochs_, &phases_}) {
    if (w->capacity == 0) continue;
    w->mark.matrix = Matrix(options_.threads);
    tracked_bytes_ += w->mark.matrix.cells().size_bytes();
  }
  if (tracker_ != nullptr) tracker_->add(tracked_bytes_);
  last_seal_ns_.store(steady_now_ns(), std::memory_order_relaxed);
}

FlightRecorder::~FlightRecorder() {
  if (tracker_ != nullptr && tracked_bytes_ != 0) tracker_->sub(tracked_bytes_);
}

void FlightRecorder::publish_accesses(std::uint32_t batch) noexcept {
  const std::uint64_t n =
      accesses_.fetch_add(batch, std::memory_order_relaxed) + batch;
  if (options_.every_accesses != 0 &&
      n - epochs_.first_access.load(std::memory_order_relaxed) >=
          options_.every_accesses) {
    seal(EpochSeal::kAccesses);
  } else if (options_.every_millis != 0 &&
             (n / (kTimerCheckMask + 1)) !=
                 ((n - batch) / (kTimerCheckMask + 1))) {
    // The batched increment can step over the exact poll points; fire when
    // the batch crosses a poll-window boundary instead of testing equality.
    timer_tick();
  }
}

void FlightRecorder::seal(EpochSeal reason) noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  // Re-check the trigger inside the lock: every thread that observed the
  // crossing races here, and only the first should seal.
  switch (reason) {
    case EpochSeal::kAccesses:
      if (accesses_.load(std::memory_order_relaxed) -
              epochs_.first_access.load(std::memory_order_relaxed) <
          options_.every_accesses) {
        return;
      }
      break;
    case EpochSeal::kTimer:
      if (steady_now_ns() - last_seal_ns_.load(std::memory_order_relaxed) <
          static_cast<std::uint64_t>(options_.every_millis) * 1000000ULL) {
        return;
      }
      break;
    default:
      break;
  }
  seal_epoch_locked(reason, cut_());
}

void FlightRecorder::seal_volume() noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  // The due_ this thread read may predate a seal that has since moved it;
  // only the first thread past the current due_ seals.
  if (volume_.load(std::memory_order_relaxed) + own_slot().volume <
      due_.load(std::memory_order_relaxed)) {
    return;
  }
  seal_phase_locked(EpochSeal::kVolume, cut_());
}

void FlightRecorder::timer_tick() noexcept {
  if (steady_now_ns() - last_seal_ns_.load(std::memory_order_relaxed) >=
      static_cast<std::uint64_t>(options_.every_millis) * 1000000ULL) {
    seal(EpochSeal::kTimer);
  }
}

void FlightRecorder::flush(EpochSeal reason) noexcept {
  if (!active_) return;
  std::lock_guard<std::mutex> lock(mu_);
  const RecorderCut cut = cut_();
  // An explicit boundary with nothing behind it (no access advanced, no
  // dependency recorded) would create an empty epoch per checkpoint; skip.
  if (epochs_.capacity != 0 &&
      (accesses_.load(std::memory_order_relaxed) !=
           epochs_.first_access.load(std::memory_order_relaxed) ||
       cut.dependencies != epochs_.mark.dependencies)) {
    seal_epoch_locked(reason, cut);
  }
  if (reason == EpochSeal::kFinalize && phases_.capacity != 0 &&
      cut.matrix.total() != phases_.mark.matrix.total()) {
    seal_phase_locked(reason, cut);
  }
}

void FlightRecorder::seal_epoch_locked(EpochSeal reason,
                                       const RecorderCut& cut) {
  if (reason == EpochSeal::kAccesses && options_.replay) {
    reason = EpochSeal::kReplay;
  }
  // One boundary read partitions the hardware counts exactly like the
  // matrix delta: everything since the previous seal lands in this epoch.
  const telemetry::PerfDelta perf = options_.perf != nullptr
                                        ? options_.perf->window_delta()
                                        : telemetry::PerfDelta{};
  if (seal_locked(epochs_, reason, accesses_.load(std::memory_order_relaxed),
                  perf, cut)) {
    telemetry::counter("recorder.overwrites").add(1);
  }
  telemetry::counter("recorder.epochs").add(1);
  telemetry::Tracer::instant("epoch_seal", telemetry::SpanCat::kEpoch);
  last_seal_ns_.store(steady_now_ns(), std::memory_order_relaxed);
}

void FlightRecorder::seal_phase_locked(EpochSeal reason,
                                       const RecorderCut& cut) {
  const TlPending& tl = pending_slot();
  const bool own = tl.gen == gen_;
  const std::uint64_t mine = own ? tl.pending : 0;
  // The previous boundary may include a count another thread has not
  // published yet; a window never ends before it starts.
  const std::uint64_t last =
      std::max(accesses_.load(std::memory_order_relaxed) + mine,
               phases_.first_access.load(std::memory_order_relaxed));
  // The next window is due W bytes past this thread's view of the volume
  // (exact with one thread), never before the previous one was.
  const std::uint64_t view =
      volume_.load(std::memory_order_relaxed) + (own ? tl.volume : 0);
  const std::uint64_t due = due_.load(std::memory_order_relaxed);
  due_.store(std::max(view, due - options_.phase_window_bytes) +
                 options_.phase_window_bytes,
             std::memory_order_relaxed);
  seal_locked(phases_, reason, last, {}, cut);
}

bool FlightRecorder::seal_locked(Partition& w, EpochSeal reason,
                                 std::uint64_t last_access,
                                 const telemetry::PerfDelta& perf,
                                 const RecorderCut& cut) {
  EpochSample e;
  e.index = w.sealed++;
  e.first_access = w.first_access.load(std::memory_order_relaxed);
  e.last_access = last_access;
  e.reason = reason;
  e.perf = perf;
  e.dependencies = cut.dependencies - w.mark.dependencies;
  // The window is the cut minus the mark: cells come out in (producer,
  // consumer) order, and shares in loop-id order, one per loop that grew.
  const int n = options_.threads;
  for (int p = 0; p < n; ++p) {
    for (int c = 0; c < n; ++c) {
      const std::uint64_t bytes = cut.matrix.at(p, c) - w.mark.matrix.at(p, c);
      if (bytes == 0) continue;
      e.cells.push_back(EpochCell{static_cast<std::uint16_t>(p),
                                  static_cast<std::uint16_t>(c), bytes});
      e.bytes += bytes;
    }
  }
  auto before = w.mark.loops.begin();
  for (const EpochLoopShare& share : cut.loops) {
    // The mark's loops are a subset of the cut's: loops only ever grow.
    while (before != w.mark.loops.end() && before->loop < share.loop) ++before;
    const std::uint64_t prior =
        before != w.mark.loops.end() && before->loop == share.loop
            ? before->bytes
            : 0;
    if (share.bytes != prior) {
      e.loops.push_back(EpochLoopShare{share.loop, share.bytes - prior});
    }
  }
  w.mark = cut;
  w.first_access.store(last_access, std::memory_order_relaxed);

  if (w.ring.size() < w.capacity) {
    w.ring.push_back(std::move(e));
    tracked_bytes_ += sizeof(EpochSample);
    if (tracker_ != nullptr) tracker_->add(sizeof(EpochSample));
    return false;
  }
  // Overwrite-and-count, the tracer's contract: the ring is bounded, the
  // loss is visible, the newest history always survives.
  w.ring[w.head] = std::move(e);
  w.head = (w.head + 1) % w.capacity;
  ++w.dropped;
  return true;
}

std::uint64_t FlightRecorder::epochs_sealed() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_.sealed;
}

std::uint64_t FlightRecorder::epochs_dropped() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_.dropped;
}

std::uint64_t FlightRecorder::phase_windows_dropped() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return phases_.dropped;
}

EpochTimeline FlightRecorder::copy_ring(const Partition& w) const {
  EpochTimeline t;
  t.threads = options_.threads;
  t.sealed = w.sealed;
  t.dropped = w.dropped;
  t.epochs.reserve(w.ring.size());
  // head stays 0 until the ring is full, so this is oldest-first either way.
  for (std::size_t i = 0; i < w.ring.size(); ++i) {
    t.epochs.push_back(w.ring[(w.head + i) % w.ring.size()]);
  }
  return t;
}

EpochTimeline FlightRecorder::phase_windows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return copy_ring(phases_);
}

EpochTimeline FlightRecorder::timeline() const {
  EpochTimeline t;
  {
    std::lock_guard<std::mutex> lock(mu_);
    t = copy_ring(epochs_);
  }
  // Resolve loop labels outside the lock (registry takes its own mutex).
  std::vector<std::uint32_t> ids;
  for (const EpochSample& e : t.epochs) {
    for (const EpochLoopShare& share : e.loops) {
      if (share.loop != instrument::kNoLoop &&
          std::find(ids.begin(), ids.end(), share.loop) == ids.end()) {
        ids.push_back(share.loop);
      }
    }
  }
  std::sort(ids.begin(), ids.end());
  for (const std::uint32_t id : ids) {
    t.loop_labels.emplace_back(id,
                               instrument::LoopRegistry::instance().label(id));
  }
  return t;
}

}  // namespace commscope::core
