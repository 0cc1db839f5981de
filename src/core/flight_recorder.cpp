#include "core/flight_recorder.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <tuple>

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

/// uint64 cells per cache line: each shard's cells start a fresh line.
constexpr std::size_t kCellsPerLine = 64 / sizeof(std::uint64_t);

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderOptions options,
                               support::MemoryTracker* tracker)
    : options_(options),
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
  due_ = options_.phase_window_bytes;
  if (options_.enabled()) {
    epochs_.capacity = std::min(
        options_.capacity == 0 ? kDefaultEpochRing : options_.capacity,
        kMaxEpochRing);
  }
  if (options_.phase_window_bytes != 0) phases_.capacity = kMaxEpochRing;

  // One shard per consumer, each owning a run of whole cache lines in
  // cell_store_ for the columns of the partitions that record.
  const std::size_t n = static_cast<std::size_t>(options_.threads);
  const std::size_t columns =
      (epochs_.capacity != 0 ? 1u : 0u) + (phases_.capacity != 0 ? 1u : 0u);
  const std::size_t block =
      (columns * n + kCellsPerLine - 1) / kCellsPerLine * kCellsPerLine;
  cell_store_.assign(n * block + kCellsPerLine - 1, 0);
  void* base = cell_store_.data();
  std::size_t space = cell_store_.size() * sizeof(std::uint64_t);
  std::uint64_t* cells = static_cast<std::uint64_t*>(
      std::align(64, n * block * sizeof(std::uint64_t), base, space));
  shards_ = std::make_unique<Shard[]>(n);
  for (std::size_t c = 0; c < n; ++c) {
    Shard& s = shards_[c];
    s.due = due_;
    std::uint64_t* next = cells + c * block;
    for (Partition* w : {&epochs_, &phases_}) {
      if (w->capacity == 0) continue;
      s.window[w->column].cells = next;
      next += n;
    }
  }
  last_seal_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  // Charge the shards now and each ring slot as it fills. Per-epoch sparse
  // cell payloads are bounded by capacity * threads^2 but typically tiny;
  // they ride untracked like the tracer's static rings, as do the columns'
  // few loop shares.
  tracked_bytes_ = n * sizeof(Shard) +
                   cell_store_.size() * sizeof(std::uint64_t);
  if (tracker_ != nullptr) tracker_->add(tracked_bytes_);
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

void FlightRecorder::add(int producer, int consumer, std::uint64_t bytes,
                         instrument::LoopId loop) noexcept {
  if (!active_) return;
  // Each endpoint on its own: a bound on the flattened index would book
  // (1, 7) at 4 threads into cell (2, 3).
  const auto n = static_cast<unsigned>(options_.threads);
  if (static_cast<unsigned>(producer) >= n ||
      static_cast<unsigned>(consumer) >= n) {
    return;
  }
  Shard& s = shards_[static_cast<std::size_t>(consumer)];
  bool due = false;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    for (const Partition* w : {&epochs_, &phases_}) {
      if (w->capacity == 0) continue;
      Column& col = s.window[w->column];
      col.cells[producer] += bytes;
      col.bytes += bytes;
      ++col.deps;
      auto share = std::find_if(
          col.loops.begin(), col.loops.end(),
          [loop](const EpochLoopShare& x) { return x.loop == loop; });
      if (share == col.loops.end()) {
        share = col.loops.insert(share, {loop, 0});
      }
      share->bytes += bytes;
    }
    if (phases_.capacity != 0) {
      TlPending& tl = own_slot();
      tl.volume += bytes;
      if (tl.volume >= volume_stride_) {
        tl.seen = volume_.fetch_add(tl.volume, std::memory_order_relaxed) +
                  tl.volume;
        tl.volume = 0;
      }
      due = tl.seen + tl.volume >= s.due;
    }
  }
  if (due) seal_volume();
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
  seal_epoch_locked(reason);
}

void FlightRecorder::seal_volume() noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  // The shard's copy of due_ may predate a seal that is still copying the
  // new one out; only the first thread past the current due_ seals.
  if (volume_.load(std::memory_order_relaxed) + own_slot().volume < due_) {
    return;
  }
  seal_phase_locked(EpochSeal::kVolume);
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
  // An explicit boundary with nothing behind it (no access advanced, no
  // dependency recorded) would create an empty epoch per checkpoint; skip.
  if (epochs_.capacity != 0 &&
      (accesses_.load(std::memory_order_relaxed) !=
           epochs_.first_access.load(std::memory_order_relaxed) ||
       open_sum(epochs_, &Column::deps) != 0)) {
    seal_epoch_locked(reason);
  }
  if (reason == EpochSeal::kFinalize && phases_.capacity != 0 &&
      open_sum(phases_, &Column::bytes) != 0) {
    seal_phase_locked(reason);
  }
}

void FlightRecorder::seal_epoch_locked(EpochSeal reason) {
  if (reason == EpochSeal::kAccesses && options_.replay) {
    reason = EpochSeal::kReplay;
  }
  // One boundary read partitions the hardware counts exactly like the
  // matrix delta: everything since the previous seal lands in this epoch.
  const telemetry::PerfDelta perf = options_.perf != nullptr
                                        ? options_.perf->window_delta()
                                        : telemetry::PerfDelta{};
  if (seal_locked(epochs_, reason, accesses_.load(std::memory_order_relaxed),
                  perf)) {
    telemetry::counter("recorder.overwrites").add(1);
  }
  telemetry::counter("recorder.epochs").add(1);
  telemetry::Tracer::instant("epoch_seal", telemetry::SpanCat::kEpoch);
  last_seal_ns_.store(steady_now_ns(), std::memory_order_relaxed);
}

void FlightRecorder::seal_phase_locked(EpochSeal reason) {
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
  due_ = std::max(view, due_ - options_.phase_window_bytes) +
         options_.phase_window_bytes;
  seal_locked(phases_, reason, last, {});
}

std::uint64_t FlightRecorder::open_sum(const Partition& w,
                                       std::uint64_t Column::*field) const {
  std::uint64_t sum = 0;
  for (std::size_t c = 0; c < static_cast<std::size_t>(options_.threads);
       ++c) {
    Shard& s = shards_[c];
    std::lock_guard<std::mutex> lock(s.mu);
    sum += s.window[w.column].*field;
  }
  return sum;
}

bool FlightRecorder::seal_locked(Partition& w, EpochSeal reason,
                                 std::uint64_t last_access,
                                 const telemetry::PerfDelta& perf) {
  EpochSample e;
  e.index = w.sealed++;
  e.first_access = w.first_access.load(std::memory_order_relaxed);
  e.last_access = last_access;
  e.reason = reason;
  e.perf = perf;
  // Merge the consumer columns shard by shard. Holding one shard lock at a
  // time keeps adds on the other shards running, and each dependency still
  // lands whole in exactly one window.
  const std::size_t n = static_cast<std::size_t>(options_.threads);
  for (std::size_t c = 0; c < n; ++c) {
    Shard& s = shards_[c];
    std::lock_guard<std::mutex> lock(s.mu);
    Column& col = s.window[w.column];
    for (std::size_t p = 0; p < n; ++p) {
      if (col.cells[p] != 0) {
        e.cells.push_back(EpochCell{static_cast<std::uint16_t>(p),
                                    static_cast<std::uint16_t>(c),
                                    col.cells[p]});
      }
    }
    e.loops.insert(e.loops.end(), col.loops.begin(), col.loops.end());
    e.bytes += col.bytes;
    e.dependencies += col.deps;
    std::fill_n(col.cells, n, 0);
    col.loops.clear();
    col.bytes = 0;
    col.deps = 0;
    if (&w == &phases_) s.due = due_;
  }
  // Columns were visited consumer-major; samples keep (producer, consumer)
  // order, and one share per loop.
  std::sort(e.cells.begin(), e.cells.end(),
            [](const EpochCell& a, const EpochCell& b) {
              return std::tie(a.producer, a.consumer) <
                     std::tie(b.producer, b.consumer);
            });
  std::sort(e.loops.begin(), e.loops.end(),
            [](const EpochLoopShare& a, const EpochLoopShare& b) {
              return a.loop < b.loop;
            });
  std::vector<EpochLoopShare> loops;
  for (const EpochLoopShare& share : e.loops) {
    if (!loops.empty() && loops.back().loop == share.loop) {
      loops.back().bytes += share.bytes;
    } else {
      loops.push_back(share);
    }
  }
  e.loops = std::move(loops);
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
