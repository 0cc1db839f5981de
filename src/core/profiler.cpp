#include "core/profiler.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace commscope::core {

namespace {

/// Rejects out-of-range options before any member is built for them: a
/// 4000-thread profiler would zero-fill a 4000^2 matrix, and a 2^20-thread
/// one would map a read signature of terabytes, before the body could check.
const ProfilerOptions& validated(const ProfilerOptions& o) {
  if (o.max_threads < 1 || o.max_threads > 64) {
    throw std::invalid_argument("Profiler supports 1..64 threads");
  }
  if (o.batch_size > kMaxBatchSize) {
    throw std::invalid_argument("Profiler batch_size must be <= 256");
  }
  return o;
}

std::variant<AsymmetricDetector, sigmem::ExactSignature> make_backend(
    const ProfilerOptions& o, support::MemoryTracker* tracker) {
  if (o.backend == Backend::kAsymmetricSignature) {
    return std::variant<AsymmetricDetector, sigmem::ExactSignature>(
        std::in_place_type<AsymmetricDetector>, o.signature_slots,
        o.max_threads, o.fp_rate, tracker);
  }
  return std::variant<AsymmetricDetector, sigmem::ExactSignature>(
      std::in_place_type<sigmem::ExactSignature>, o.max_threads, tracker);
}

}  // namespace

Profiler::Profiler(ProfilerOptions options)
    : options_(validated(options)),
      backend_(make_backend(options, &memory_)),
      tree_(options.max_threads, &memory_, options.sparse_region_matrices),
      perf_(options.perf
                ? std::make_unique<telemetry::PerfCounters>(
                      telemetry::PerfCountersOptions{options.max_threads},
                      &memory_)
                : nullptr),
      recorder_(FlightRecorderOptions{options.max_threads,
                                      options.epoch_accesses,
                                      options.epoch_millis,
                                      options.epoch_ring,
                                      options.phase_window_bytes,
                                      options.epoch_replay,
                                      perf_.get()},
                [this] { return recorder_cut(); }, &memory_),
      contexts_(std::make_unique<ThreadCtx[]>(
          static_cast<std::size_t>(options.max_threads))) {
  for (int t = 0; t < options.max_threads; ++t) {
    contexts_[static_cast<std::size_t>(t)].stack.reserve(16);
  }
  batch_flushes_ = &telemetry::counter("sink.batch.flushes");
  batch_events_ = &telemetry::counter("sink.batch.events");
  batch_partial_ = &telemetry::counter("sink.batch.partial");
}

void Profiler::on_thread_begin(int tid) {
  if (!admit_tid(tid)) return;
  if (options_.batch_size != 0) flush_batch(tid);
  ThreadCtx& c = ctx(tid);
  c.stack.clear();
  c.stack.push_back(&tree_.root());
  if (perf_ != nullptr) {
    // Open this thread's counter group and baseline the boundary cursor so
    // the first loop segment does not inherit pre-registration counts.
    perf_->attach_current_thread(tid);
    c.perf_last = perf_->read_thread(tid);
  }
}

void Profiler::on_loop_enter(int tid, instrument::LoopId id) {
  if (!admit_tid(tid)) return;
  // Drain before the region stack moves so every buffered access is
  // attributed to the loop it was issued in, exactly as the unbatched path
  // attributes it.
  if (options_.batch_size != 0) flush_batch(tid);
  telemetry::Tracer::loop_begin(tid, id);
  ThreadCtx& c = ctx(tid);
  if (c.stack.empty()) c.stack.push_back(&tree_.root());
  perf_boundary(tid, c);  // charge the pre-loop segment before the push
  RegionNode* node = c.stack.back()->child(id);
  node->count_entry();
  c.stack.push_back(node);
}

void Profiler::on_loop_exit(int tid) {
  if (!admit_tid(tid)) return;
  if (options_.batch_size != 0) flush_batch(tid);
  telemetry::Tracer::loop_end(tid);
  ThreadCtx& c = ctx(tid);
  perf_boundary(tid, c);  // charge the loop body before the pop
  if (c.stack.size() > 1) c.stack.pop_back();
}

void Profiler::ingest_one(int tid, ThreadCtx& c, std::uintptr_t addr,
                          std::uint32_t size, instrument::AccessKind kind) {
  if (c.stack.empty()) c.stack.push_back(&tree_.root());
  ++c.accesses;
  recorder_.count_access();

  if (kind == instrument::AccessKind::kWrite) {
    ++c.writes;
    if (options_.classify_dependences) {
      sigmem::ExactSignature::WriteObservation obs;
      if (auto* det = std::get_if<AsymmetricDetector>(&backend_)) {
        obs = det->on_write_classified(addr, tid);
      } else {
        obs = std::get<sigmem::ExactSignature>(backend_).on_write_classified(
            addr, tid);
      }
      if (obs.had_other_readers) ++c.war;
      if (obs.prev_writer.has_value() && *obs.prev_writer != tid) ++c.waw;
    } else if (auto* det = std::get_if<AsymmetricDetector>(&backend_)) {
      det->on_write(addr, tid);
    } else {
      std::get<sigmem::ExactSignature>(backend_).on_write(addr, tid);
    }
    return;
  }

  ++c.reads;
  std::optional<int> producer;
  if (options_.classify_dependences) {
    sigmem::ExactSignature::ReadObservation obs;
    if (auto* det = std::get_if<AsymmetricDetector>(&backend_)) {
      obs = det->on_read_classified(addr, tid);
    } else {
      obs = std::get<sigmem::ExactSignature>(backend_).on_read_classified(addr,
                                                                          tid);
    }
    if (obs.rar) ++c.rar;
    producer = obs.producer;
  } else if (auto* det = std::get_if<AsymmetricDetector>(&backend_)) {
    producer = det->on_read(addr, tid);
  } else {
    producer = std::get<sigmem::ExactSignature>(backend_).on_read(addr, tid);
  }
  if (producer.has_value()) {
    c.stack.back()->matrix().add(*producer, tid, size);
    count_dependencies(c, 1);
    recorder_.on_dependency(size);
  }
}

void Profiler::flush_batch(int tid) {
  ThreadCtx& c = ctx(tid);
  const std::uint32_t n = c.batch_count;
  if (n == 0) return;
  c.batch_count = 0;  // reset first: reentrant re-arrivals start a fresh batch
  telemetry::ScopedSpan span("batch_flush", telemetry::SpanCat::kBatch, tid);
  batch_flushes_->add(1);
  batch_events_->add(n);
  if (n < options_.batch_size) batch_partial_->add(1);

  if (c.stack.empty()) c.stack.push_back(&tree_.root());
  auto* det = std::get_if<AsymmetricDetector>(&backend_);
  if (det != nullptr && !options_.classify_dependences) [[likely]] {
    // Vectorized drain: the detector runs the whole block through its
    // hash -> classify -> gather -> apply pipeline (SIMD batch hashing,
    // slot-repeat collapsing, block-gathered signature loads) and returns
    // the dependencies as a dense event-ordered list. Bit-identical to
    // running Algorithm 1 per event in issue order — the property the
    // differential suite replays.
    static_assert(kMaxBatchSize <= AsymmetricDetector::kMaxDrainBlock);
    RegionNode* region = c.stack.back();
    std::uint16_t dep_evt[kMaxBatchSize];
    std::int8_t dep_producer[kMaxBatchSize];
    const AsymmetricDetector::DrainResult r = det->drain_batch(
        c.batch_addr, c.batch_meta, n, tid, dep_evt, dep_producer);
    c.accesses += n;
    c.writes += r.writes;
    c.reads += n - r.writes;
    if (recorder_.active()) {
      // Epoch seals and phase windows cut the region matrices and the
      // dependency count mid-stream, so both advance one dependency at a
      // time, interleaved with the access counting in issue order — exactly
      // as the unbatched path interleaves them. Counting the run of accesses
      // up to each dependency in bulk publishes at the same points as
      // counting them one by one.
      std::uint32_t counted = 0;
      for (std::uint32_t d = 0; d < r.deps; ++d) {
        const std::uint32_t i = dep_evt[d];
        recorder_.count_accesses(i + 1 - counted);
        counted = i + 1;
        const std::uint32_t bytes =
            c.batch_meta[i] & ~AsymmetricDetector::kMetaWriteBit;
        region->matrix().add(dep_producer[d], tid, bytes);
        count_dependencies(c, 1);
        recorder_.on_dependency(bytes);
      }
      recorder_.count_accesses(n - counted);
    } else {
      // No mid-stream observers: only the dependencies themselves matter,
      // and their region attribution is order-insensitive within the batch.
      for (std::uint32_t d = 0; d < r.deps; ++d) {
        region->matrix().add(
            dep_producer[d], tid,
            c.batch_meta[dep_evt[d]] & ~AsymmetricDetector::kMetaWriteBit);
      }
      count_dependencies(c, r.deps);
    }
    return;
  }

  // Exact backend / classification: no slot prefetch to amortize, but the
  // drain still shares ingest_one with the unbatched path.
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t meta = c.batch_meta[i];
    ingest_one(tid, c, c.batch_addr[i],
               meta & ~AsymmetricDetector::kMetaWriteBit,
               (meta & AsymmetricDetector::kMetaWriteBit) != 0
                   ? instrument::AccessKind::kWrite
                   : instrument::AccessKind::kRead);
  }
}

void Profiler::on_drain(int tid) {
  if (static_cast<unsigned>(tid) >=
      static_cast<unsigned>(options_.max_threads)) {
    return;  // nothing buffered for an inadmissible tid; not a dropped event
  }
  flush_batch(tid);
}

void Profiler::flush_all() {
  for (int t = 0; t < options_.max_threads; ++t) flush_batch(t);
}

void Profiler::finalize() {
  flush_all();
  if (perf_ != nullptr) {
    // Charge each thread's tail segment (last boundary -> now) to its
    // current region so region totals and the final epoch agree with total().
    // finalize() requires quiescence, and reading another thread's perf fds
    // is explicitly legal, so walking all contexts here is safe.
    for (int t = 0; t < options_.max_threads; ++t) {
      perf_boundary(t, ctx(t));
    }
  }
  recorder_.flush(EpochSeal::kFinalize);
  // Stamp the run's aggregate accounting into the process-wide telemetry
  // registry. Gauges (not counters): a process can finalize several
  // profilers, and the snapshot should describe the most recent run rather
  // than a cross-run sum the report would never show.
  const ProfileStats s = stats();
  telemetry::gauge("profiler.accesses").set(s.accesses);
  telemetry::gauge("profiler.reads").set(s.reads);
  telemetry::gauge("profiler.writes").set(s.writes);
  telemetry::gauge("profiler.dependencies").set(s.dependencies);
  telemetry::gauge("profiler.dropped_events").set(dropped_events());
  telemetry::gauge("profiler.mem_bytes").set(memory_.current());
  telemetry::gauge("profiler.mem_peak").set(memory_.peak());
  telemetry::gauge("profiler.degradations")
      .set(static_cast<std::uint64_t>(degradations_.size()));
  telemetry::gauge("recorder.epochs_sealed").set(recorder_.epochs_sealed());
  telemetry::gauge("recorder.epochs_dropped").set(recorder_.epochs_dropped());
  if (perf_ != nullptr) {
    const telemetry::PerfDelta total = perf_->total();
    telemetry::gauge("perf.cycles").set(total.cycles);
    telemetry::gauge("perf.instructions").set(total.instructions);
    telemetry::gauge("perf.llc_misses").set(total.llc_misses);
    telemetry::gauge("perf.hitm").set(total.hitm);
  }
}

void Profiler::record_degradation(DegradationEvent event) {
  telemetry::counter("profiler.degradations").add(1);
  telemetry::Tracer::instant("degradation", telemetry::SpanCat::kDegrade);
  degradations_.push_back(std::move(event));
}

namespace {
constexpr std::size_t kMinSignatureSlots = 4096;
}  // namespace

bool Profiler::degrade_exact_to_signature(std::uint64_t event_index,
                                          const std::string& reason) {
  flush_all();  // quiescence is this function\'s precondition; drain into the
                // outgoing state before it is replaced
  auto* exact = std::get_if<sigmem::ExactSignature>(&backend_);
  if (exact == nullptr) return false;
  const std::uint64_t before = memory_.current();

  // Export the tracked state, then rebuild the variant as a bounded
  // signature (the emplace destroys the exact map and releases its charge).
  const std::vector<sigmem::ExactSignature::ExportedCell> cells =
      exact->export_cells();
  AsymmetricDetector& det = backend_.emplace<AsymmetricDetector>(
      options_.signature_slots, options_.max_threads, options_.fp_rate,
      &memory_);
  // Writes first so the reader inserts that follow are not cleared; the
  // returned producers are discarded — the exact backend already counted
  // those first touches.
  for (const auto& c : cells) {
    if (c.writer >= 0) det.on_write(c.addr, c.writer);
  }
  for (const auto& c : cells) {
    for (int t = 0; t < options_.max_threads; ++t) {
      if ((c.readers >> static_cast<unsigned>(t)) & 1ULL) {
        (void)det.on_read(c.addr, t);
      }
    }
  }
  options_.backend = Backend::kAsymmetricSignature;
  record_degradation(DegradationEvent{
      event_index, before, memory_.current(), reason,
      "exact backend -> asymmetric signature (" +
          std::to_string(cells.size()) + " tracked addresses migrated into " +
          std::to_string(options_.signature_slots) + " slots)"});
  return true;
}

bool Profiler::degrade_regions_to_sparse(std::uint64_t event_index,
                                         const std::string& reason) {
  flush_all();  // quiescence is this function\'s precondition; drain into the
                // outgoing state before it is replaced
  if (options_.sparse_region_matrices) return false;
  const std::uint64_t before = memory_.current();
  tree_.convert_to_sparse();
  options_.sparse_region_matrices = true;
  record_degradation(DegradationEvent{
      event_index, before, memory_.current(), reason,
      "dense region matrices -> sparse (" +
          std::to_string(tree_.node_count()) + " regions converted)"});
  return true;
}

bool Profiler::degrade_halve_slots(std::uint64_t event_index,
                                   const std::string& reason) {
  flush_all();  // quiescence is this function\'s precondition; drain into the
                // outgoing state before it is replaced
  if (!std::holds_alternative<AsymmetricDetector>(backend_)) return false;
  if (options_.signature_slots / 2 < kMinSignatureSlots) return false;
  const std::uint64_t before = memory_.current();
  options_.signature_slots /= 2;
  backend_.emplace<AsymmetricDetector>(options_.signature_slots,
                                       options_.max_threads, options_.fp_rate,
                                       &memory_);
  record_degradation(DegradationEvent{
      event_index, before, memory_.current(), reason,
      "signature slots halved to " + std::to_string(options_.signature_slots) +
          " (detector state reset; duplicate first-touches possible)"});
  return true;
}

RecorderCut Profiler::recorder_cut() const {
  RecorderCut cut;
  // Counts before matrices: a count this read sees was released after its
  // bytes were added, so the walk below sees them too, and a window whose
  // matrix grew always shows more dependencies than its mark (flush()'s
  // skip rule relies on it).
  for (int t = 0; t < options_.max_threads; ++t) {
    cut.dependencies += contexts_[static_cast<std::size_t>(t)]
                            .dependencies.load(std::memory_order_acquire);
  }
  cut.matrix = Matrix(options_.max_threads);
  for (const RegionNode* node : tree_.preorder()) {
    const Matrix direct = node->direct();
    const std::uint64_t bytes = direct.total();
    if (bytes == 0) continue;
    cut.matrix += direct;
    auto share = std::lower_bound(
        cut.loops.begin(), cut.loops.end(), node->loop(),
        [](const EpochLoopShare& s, instrument::LoopId id) {
          return s.loop < id;
        });
    if (share == cut.loops.end() || share->loop != node->loop()) {
      share = cut.loops.insert(share, EpochLoopShare{node->loop(), 0});
    }
    share->bytes += bytes;
  }
  return cut;
}

DependenceCounts Profiler::dependence_counts() const {
  DependenceCounts d;
  for (int t = 0; t < options_.max_threads; ++t) {
    const ThreadCtx& c = contexts_[static_cast<std::size_t>(t)];
    d.raw += c.dependencies.load(std::memory_order_relaxed);
    d.war += c.war;
    d.waw += c.waw;
    d.rar += c.rar;
  }
  return d;
}

ProfileStats Profiler::stats() const {
  ProfileStats s;
  for (int t = 0; t < options_.max_threads; ++t) {
    const ThreadCtx& c = contexts_[static_cast<std::size_t>(t)];
    s.accesses += c.accesses;
    s.reads += c.reads;
    s.writes += c.writes;
    s.dependencies += c.dependencies.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace commscope::core
