#include "resilience/guarded_sink.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include <sstream>

#include "core/epoch_io.hpp"
#include "resilience/checkpoint.hpp"
#include "support/atomic_file.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "threading/reentrancy.hpp"

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#if defined(__unix__) || defined(__APPLE__)
#include <pthread.h>
#define COMMSCOPE_HAVE_ATFORK 1
#endif

namespace commscope::resilience {

namespace {

// sys_membarrier turns the Dekker handshake asymmetric: profiling threads
// publish their safepoint slot with a relaxed store + compiler barrier, and
// stop_the_world() pays one syscall that interposes a full memory barrier in
// every running thread of the process. Command values are stable kernel ABI
// (linux/membarrier.h): REGISTER_PRIVATE_EXPEDITED = 1<<4, and
// PRIVATE_EXPEDITED = 1<<3.
#if defined(__linux__) && defined(SYS_membarrier)
bool register_membarrier() noexcept {
  return syscall(SYS_membarrier, /*REGISTER_PRIVATE_EXPEDITED=*/16, 0, 0) == 0;
}
void membarrier_sync() noexcept {
  syscall(SYS_membarrier, /*PRIVATE_EXPEDITED=*/8, 0, 0);
}
#else
bool register_membarrier() noexcept { return false; }
void membarrier_sync() noexcept {}
#endif

// The most recently constructed live sink; the exit and fork handler
// reaches it through this pointer because atexit and pthread_atfork take
// plain function pointers. One process-wide slot matches the CLI's
// one-run-at-a-time shape; a second concurrent sink simply isn't flushed.
std::atomic<GuardedSink*> g_active_sink{nullptr};

/// Set while this thread runs flush_active(): a flush that exits (or forks)
/// must not re-enter the maintenance lock it holds.
thread_local bool t_in_flush = false;

/// The event clock's per-thread half, tied to one sink by generation. Not
/// the recorder's TlPending: a slot resets when it last served another
/// owner, so a thread alternating between the two would drop counts.
struct TlClock {
  std::uint64_t gen = 0;
  std::uint64_t seen = 0;
  std::uint32_t pending = 0;
};
thread_local TlClock t_clock;

/// Monotonic source of sink generations (0 stays "no sink").
std::atomic<std::uint64_t> g_sink_gen{0};

/// Widest clock stride (the recorder's kMaxCountStride).
constexpr std::uint64_t kMaxClockStride = 64;

}  // namespace

GuardedSink::GuardedSink(core::Profiler& profiler, ResourceGuard* guard,
                         Options options, FaultInjector* injector,
                         CrashGuard* crash)
    : profiler_(&profiler),
      guard_(guard),
      options_(std::move(options)),
      injector_(injector),
      crash_(crash),
      guard_enabled_(guard != nullptr && guard->enabled()),
      gate_(guard_enabled_ || options_.checkpoint_every != 0 ||
            injector != nullptr),
      suppressible_(guard != nullptr && guard->options().event_budget != 0),
      asym_(gate_ && register_membarrier()),
      threads_(static_cast<unsigned>(profiler.options().max_threads)),
      check_every_(guard_enabled_ ? std::max<std::uint64_t>(
                                        1, guard->options().check_interval)
                                  : 0) {
  if (gate_) {
    gen_ = g_sink_gen.fetch_add(1, std::memory_order_relaxed) + 1;
    // The recorder's rule: never wider than 1/16th of the finest periodic
    // mark, so small cadences stay near-exact at any thread count.
    std::uint64_t finest = kNever;
    for (const std::uint64_t every :
         {options_.checkpoint_every, check_every_}) {
      if (every != 0) finest = std::min(finest, every);
    }
    stride_ = static_cast<std::uint32_t>(
        std::clamp<std::uint64_t>(finest / 16, 1, kMaxClockStride));
    if (suppressible_ && guard->options().event_budget < kNever) {
      next_budget_ = guard->options().event_budget + 1;
    }
    advance_marks(0);
  }
  if (crash_ != nullptr && crash_->has_dump_path()) {
    // A crash before the first periodic checkpoint must still dump a
    // loadable (if empty) snapshot.
    CheckpointMeta meta;
    meta.events = 0;
    meta.state = "partial";
    meta.reason = "initial";
    crash_->publish(
        serialize_checkpoint(*profiler_, meta, profiler_->stats()));
  }
  g_active_sink.store(this, std::memory_order_release);
  static std::once_flag installed;
  std::call_once(installed, [] {
    std::atexit([] { flush_active(); });
#if defined(COMMSCOPE_HAVE_ATFORK)
    pthread_atfork([] { flush_active(); }, nullptr, nullptr);
#endif
  });
}

GuardedSink::~GuardedSink() {
  GuardedSink* self = this;
  g_active_sink.compare_exchange_strong(self, nullptr,
                                        std::memory_order_acq_rel);
}

void GuardedSink::flush_active() noexcept {
  if (t_in_flush) return;
  t_in_flush = true;
  if (GuardedSink* sink = g_active_sink.load(std::memory_order_acquire)) {
    sink->flush();
  }
  t_in_flush = false;
}

std::uint64_t GuardedSink::suppressed() const noexcept {
  std::uint64_t n = 0;
  for (const Slot& s : slots_) {
    n += s.suppressed.load(std::memory_order_relaxed);
  }
  return n;
}

void GuardedSink::flush() noexcept {
  // Exit/fork can race a normal maintenance pass; the lock serializes them.
  // Under the safepoint protocol we also drain in-flight events so the
  // serialized tree is not torn; without it (plain passthrough sink) the
  // snapshot is best-effort, which is still strictly better than losing the
  // run's state to an exit() mid-phase.
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  telemetry::ScopedSpan span("flush", telemetry::SpanCat::kFlush);
  try {
    if (gate_) stop_the_world();
    // With appenders parked at the safepoint, pending micro-batches can be
    // drained; the snapshot then includes every admitted access.
    if (gate_) profiler_->flush_all();
    write_checkpoint("partial", "flush");
    if (gate_) resume_the_world();
  } catch (...) {
    // flush() runs from the exit and fork handler; failure means no
    // snapshot, never a crash on the way out.
    if (gate_) resume_the_world();
  }
}

inline void GuardedSink::tick() {
  TlClock& tl = t_clock;
  if (tl.gen != gen_) [[unlikely]] tl = TlClock{gen_};
  if (++tl.pending == stride_) {
    tl.seen = clock_.fetch_add(stride_, std::memory_order_relaxed) + stride_;
    tl.pending = 0;
  }
  const std::uint64_t view = tl.seen + tl.pending;
  if (view >= due_.load(std::memory_order_relaxed)) [[unlikely]] on_due(view);
}

void GuardedSink::on_due(std::uint64_t view) {
  std::uint64_t index = view;
  bool fault = false;
  {
    // One maintainer at a time. A thread that loses the lock, or finds the
    // mark already advanced by a faster one, just continues profiling; a
    // mark nobody handled is still due at the next tick.
    std::unique_lock<std::mutex> lock(maintenance_mu_, std::try_to_lock);
    if (!lock.owns_lock() || view < due_.load(std::memory_order_relaxed)) {
      return;
    }
    const bool checkpoint = view >= next_checkpoint_;
    fault = view >= next_fault_;
    const bool guard_work = guard_enabled_ && guard_->action_pending(view);
    if (checkpoint || guard_work || fault) {
      telemetry::ScopedSpan span("maintenance", telemetry::SpanCat::kGuard);
      stop_the_world();
      // Drained, the access count covers every admitted access: the index.
      profiler_->flush_all();
      index = profiler_->stats().accesses;
      if (guard_work) guard_->check(index);
      if (checkpoint) write_checkpoint("partial", "periodic");
      resume_the_world();
    }
    advance_marks(std::max(view, index));
  }
  // Outside the lock and the stopped world: a stall must not hold the other
  // threads, and a thrown kill must not leave the world stopped.
  if (fault) injector_->on_event(index);
}

void GuardedSink::advance_marks(std::uint64_t done) noexcept {
  const auto after = [done](std::uint64_t every) {
    return every == 0 ? kNever : (done / every + 1) * every;
  };
  next_checkpoint_ = after(options_.checkpoint_every);
  next_check_ = after(check_every_);
  if (done >= next_budget_) next_budget_ = kNever;  // a one-shot mark
  if (injector_ != nullptr) next_fault_ = injector_->next_event_fault(done);
  due_.store(std::min({next_checkpoint_, next_check_, next_budget_,
                       next_fault_}),
             std::memory_order_relaxed);
}

void GuardedSink::write_checkpoint(const std::string& state,
                                   const std::string& reason) {
  // Serializing walks the whole region tree; skip it when the snapshot has
  // nowhere to go (no checkpoint file, and a crash guard with no dump path).
  const bool publish = crash_ != nullptr && crash_->has_dump_path();
  if (!publish && options_.checkpoint_path.empty()) return;
  telemetry::ScopedSpan span("checkpoint", telemetry::SpanCat::kCheckpoint);
  // World is stopped (or the run is finalizing), so the profiler's
  // per-thread counters are stable.
  const core::ProfileStats stats = profiler_->stats();
  CheckpointMeta meta;
  meta.events = stats.accesses;
  meta.state = state;
  meta.reason = reason;
  std::string snapshot = serialize_checkpoint(*profiler_, meta, stats);
  if (publish) crash_->publish(snapshot);
  if (options_.checkpoint_path.empty()) return;
  // Write faults apply to the file copy only — the published emergency
  // snapshot stays intact, mirroring a torn disk write.
  if (injector_ != nullptr) injector_->mutate_payload(snapshot);
  try {
    const std::uint64_t t0 = telemetry::Tracer::now_ns();
    support::write_file_atomic(options_.checkpoint_path, snapshot);
    if (telemetry::Tracer::enabled()) {
      telemetry::histogram("checkpoint.write_us")
          .record((telemetry::Tracer::now_ns() - t0) / 1000);
    }
    ++checkpoints_written_;
    telemetry::counter("checkpoint.written").add(1);
  } catch (const std::exception& e) {
    telemetry::counter("checkpoint.io_failed").add(1);
    if (!checkpoint_io_failed_) {
      checkpoint_io_failed_ = true;
      std::fprintf(stderr, "commscope: warning: %s (checkpointing disabled)\n",
                   e.what());
    }
  }
  write_epoch_sidecar();
}

void GuardedSink::write_epoch_sidecar() {
  // The flight recorder's ring rides along with every checkpoint: force an
  // epoch boundary (the world is stopped, so the window is stable and every
  // pending micro-batch has been drained), then persist the surviving ring
  // to `<checkpoint>.epochs` so the time-resolved history has the same
  // crash-survival story as the checkpoint itself. Sidecar IO failure is
  // isolated: the checkpoint must never be lost to an epoch-file problem.
  core::FlightRecorder& recorder = profiler_->recorder();
  if (!recorder.enabled() || options_.checkpoint_path.empty()) return;
  recorder.flush(core::EpochSeal::kCheckpoint);
  try {
    std::ostringstream os;
    core::write_epochs(os, recorder.timeline());
    support::write_file_atomic(options_.checkpoint_path + ".epochs",
                               os.str());
    telemetry::counter("recorder.sidecar_written").add(1);
  } catch (const std::exception& e) {
    telemetry::counter("recorder.sidecar_failed").add(1);
    if (!epoch_io_failed_) {
      epoch_io_failed_ = true;
      std::fprintf(stderr,
                   "commscope: warning: %s (epoch sidecar disabled)\n",
                   e.what());
    }
  }
}

template <class Call>
inline void GuardedSink::deliver(int tid, Call&& call) {
  if (!gate_ || static_cast<unsigned>(tid) >= threads_) {
    call();
    return;
  }
  Slot& s = slots_[tid];
  safepoint_enter(s);
  call();
  safepoint_leave(s);
}

void GuardedSink::on_thread_begin(int tid) {
  deliver(tid, [&] { profiler_->on_thread_begin(tid); });
}

// Loop structure events always flow — region attribution must stay exact
// even when access events are suppressed. They drain the thread's
// micro-batch and move its region stack, which a world stop's flush_all()
// reads, so on a gated sink they hold the safepoint like accesses do.
void GuardedSink::on_loop_enter(int tid, instrument::LoopId id) {
  threading::ReentrancyGuard reent;
  if (!reent.engaged()) [[unlikely]] {
    reentrant_drops_.fetch_add(1, std::memory_order_relaxed);
    telemetry::counter("sink.reentrant_drops").add(1);
    return;
  }
  deliver(tid, [&] { profiler_->on_loop_enter(tid, id); });
}

void GuardedSink::on_loop_exit(int tid) {
  threading::ReentrancyGuard reent;
  if (!reent.engaged()) [[unlikely]] {
    reentrant_drops_.fetch_add(1, std::memory_order_relaxed);
    telemetry::counter("sink.reentrant_drops").add(1);
    return;
  }
  deliver(tid, [&] { profiler_->on_loop_exit(tid); });
}

void GuardedSink::on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                            instrument::AccessKind kind) {
  // An instrumented allocator (or any client hook) that fires while the
  // profiler is itself allocating would recurse into the sink forever; the
  // outermost-entry guard turns that into a counted drop instead.
  threading::ReentrancyGuard reent;
  if (!reent.engaged()) [[unlikely]] {
    reentrant_drops_.fetch_add(1, std::memory_order_relaxed);
    telemetry::counter("sink.reentrant_drops").add(1);
    return;
  }
  // Ungated sinks pass through. A tid the profiler drops (negative, or past
  // max_threads) takes no slot — it would share a live thread's — and
  // no tick: the profiler counts the drop without touching per-thread state.
  if (!gate_ || static_cast<unsigned>(tid) >= threads_) {
    profiler_->on_access(tid, addr, size, kind);
    return;
  }
  Slot& s = slots_[tid];
  if (suppressible_ && guard_->suppress_accesses()) [[unlikely]] {
    s.suppressed.store(s.suppressed.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    return;
  }
  safepoint_enter(s);
  profiler_->on_access(tid, addr, size, kind);
  safepoint_leave(s);
  // After the leave: maintenance stops the world, so it must never run from
  // inside a slot.
  tick();
}

void GuardedSink::on_drain(int tid) {
  threading::ReentrancyGuard reent;
  if (!reent.engaged()) [[unlikely]] {
    reentrant_drops_.fetch_add(1, std::memory_order_relaxed);
    telemetry::counter("sink.reentrant_drops").add(1);
    return;
  }
  // No tick and no suppression check: the drained accesses ticked and were
  // admitted when they entered the batch; losing them to a budget decision
  // now would un-count admitted events.
  deliver(tid, [&] { profiler_->on_drain(tid); });
}

void GuardedSink::finalize() {
  // Drains the last micro-batches, so the access count below is final.
  profiler_->finalize();
  // Gauges describe this sink's run; the per-instance atomics above stay the
  // authoritative counts (tests run several sinks in one process).
  telemetry::gauge("sink.events").set(profiler_->stats().accesses);
  telemetry::gauge("sink.suppressed").set(suppressed());
  telemetry::gauge("sink.reentrant_drops").set(reentrant_drops());
  write_checkpoint("complete", "final");
}

inline void GuardedSink::safepoint_enter(Slot& s) noexcept {
  if (asym_) {
    // Asymmetric Dekker: the membarrier in stop_the_world() interposes a
    // full barrier in this thread, so either our store is visible to the
    // maintainer or our (acquire) load sees its pause bit. The acquire
    // also pairs with resume_the_world()'s release, so post-maintenance
    // structure changes are visible before we touch the profiler.
    s.active.store(1, std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    if (pause_.load(std::memory_order_acquire) == 0) [[likely]] return;
  } else {
    // Symmetric fallback: the seq_cst store/load pair carries the same
    // guarantee without kernel help.
    s.active.store(1, std::memory_order_seq_cst);
    if (pause_.load(std::memory_order_seq_cst) == 0) [[likely]] return;
  }
  safepoint_enter_contended(s);
}

void GuardedSink::safepoint_enter_contended(Slot& s) noexcept {
  for (;;) {
    s.active.store(0, std::memory_order_seq_cst);
    while (pause_.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
    s.active.store(1, std::memory_order_seq_cst);
    if (pause_.load(std::memory_order_seq_cst) == 0) return;
  }
}

inline void GuardedSink::safepoint_leave(Slot& s) noexcept {
  // Release so the draining maintainer observes our profiler writes.
  s.active.store(0, std::memory_order_release);
}

void GuardedSink::stop_the_world() noexcept {
  telemetry::Tracer::begin("world_stopped", telemetry::SpanCat::kQuiesce);
  pause_.store(1, std::memory_order_seq_cst);
  if (asym_) membarrier_sync();
  for (Slot& s : slots_) {
    while (s.active.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
  }
}

void GuardedSink::resume_the_world() noexcept {
  pause_.store(0, std::memory_order_release);
  telemetry::Tracer::end(telemetry::SpanCat::kQuiesce);
}

}  // namespace commscope::resilience
