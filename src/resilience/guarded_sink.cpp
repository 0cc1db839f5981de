#include "resilience/guarded_sink.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>

#include <sstream>

#include "core/epoch_io.hpp"
#include "resilience/checkpoint.hpp"
#include "support/atomic_file.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
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

std::uint64_t round_up_pow2(std::uint64_t v) noexcept {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// The most recently constructed live sink; ThreadRegistry flush hooks (fired
// at exit()/fork()) reach it through this pointer because hooks are plain
// function pointers. One process-wide slot matches the CLI's one-run-at-a-
// time shape; a second concurrent sink simply isn't flushed by the hook.
std::atomic<GuardedSink*> g_active_sink{nullptr};

void flush_active_sink() noexcept {
  if (GuardedSink* sink = g_active_sink.load(std::memory_order_acquire)) {
    sink->flush();
  }
}

// Logical tid this thread last drove through the sink. The registry's dense
// id and the sink's logical tid are different namespaces (harnesses hand
// lanes their own ids), so the exiting thread itself records which batch it
// owns; the registry thread-exit hook drains exactly that one.
thread_local int t_last_tid = -1;

void drain_active_sink_thread(int /*registry_tid*/) noexcept {
  if (t_last_tid < 0) return;
  if (GuardedSink* sink = g_active_sink.load(std::memory_order_acquire)) {
    sink->on_drain(t_last_tid);
  }
}

}  // namespace

GuardedSink::GuardedSink(core::Profiler& profiler, ResourceGuard* guard,
                         Options options, FaultInjector* injector,
                         CrashGuard* crash)
    : profiler_(&profiler),
      guard_(guard),
      options_(std::move(options)),
      injector_(injector),
      crash_(crash),
      gate_((guard != nullptr && guard->enabled()) ||
            options_.checkpoint_every != 0),
      precise_(injector != nullptr || options_.checkpoint_every != 0 ||
               options_.count_events ||
               (guard != nullptr && guard->options().event_budget != 0)),
      guard_enabled_(guard != nullptr && guard->enabled()),
      asym_(gate_ && register_membarrier()),
      check_mask_(
          guard != nullptr
              ? round_up_pow2(std::max<std::uint64_t>(
                    1, guard->options().check_interval)) - 1
              : 0) {
  if (!precise_ && guard_ != nullptr &&
      guard_->options().mem_budget_bytes != 0) {
    // Coarse mode: budget crossings are sensed on the allocation path and
    // raise a bit in the pause word the access path already polls. The
    // observer slot is free here — an attached fault injector (the other
    // observer user) forces precise mode.
    guard_->bind_pending(pause_, kBudgetCrossed);
    profiler_->memory().set_observer(guard_);
    observer_installed_ = true;
    guard_->prime();
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
  static const bool hook_registered =
      threading::ThreadRegistry::at_flush(&flush_active_sink);
  (void)hook_registered;
  // A worker that exits mid-phase drains its own micro-batch on the way out,
  // while its logical tid is still unambiguously its.
  static const bool exit_hook_registered =
      threading::ThreadRegistry::at_thread_exit(&drain_active_sink_thread);
  (void)exit_hook_registered;
}

std::uint64_t GuardedSink::begin_event() {
  const std::uint64_t idx =
      events_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (injector_ != nullptr) injector_->on_event(idx);
  if (gate_) {
    const bool guard_due = guard_enabled_ && (idx & check_mask_) == 0 &&
                           guard_->action_pending(idx);
    const bool checkpoint_due = options_.checkpoint_every != 0 &&
                                idx % options_.checkpoint_every == 0;
    if (guard_due || checkpoint_due) maintenance(idx);
  }
  return idx;
}

GuardedSink::~GuardedSink() {
  GuardedSink* self = this;
  g_active_sink.compare_exchange_strong(self, nullptr,
                                        std::memory_order_acq_rel);
  if (observer_installed_) profiler_->memory().set_observer(nullptr);
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
    write_checkpoint(events_.load(std::memory_order_relaxed), "partial",
                     "flush");
    if (gate_) resume_the_world();
  } catch (...) {
    // flush() runs from atexit/fork hooks; failure means no snapshot, never
    // a crash on the way out.
    if (gate_) resume_the_world();
  }
}

void GuardedSink::coarse_tick() {
  std::unique_lock<std::mutex> lock(maintenance_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;  // another thread holds the world
  // Another appender may have run the check since this one saw the bit.
  if ((pause_.load(std::memory_order_acquire) & kBudgetCrossed) == 0) return;
  telemetry::ScopedSpan span("guard_check", telemetry::SpanCat::kGuard);
  stop_the_world();
  // Drain first so the stats the guard sees (and any ladder rung that
  // replaces the backend) cover every admitted access, not just flushed ones.
  profiler_->flush_all();
  // With the world stopped the profiler's per-thread counters are stable;
  // its access count is the closest thing to an event index in coarse mode.
  guard_->check(profiler_->stats().accesses);
  resume_the_world();
}

void GuardedSink::maintenance(std::uint64_t index) {
  // One maintainer at a time; a losing thread just continues profiling (the
  // winner is already doing the work for this window).
  std::unique_lock<std::mutex> lock(maintenance_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  telemetry::ScopedSpan span("maintenance", telemetry::SpanCat::kGuard);
  stop_the_world();
  profiler_->flush_all();
  if (guard_ != nullptr && guard_->enabled()) guard_->check(index);
  if (options_.checkpoint_every != 0 &&
      index % options_.checkpoint_every == 0) {
    write_checkpoint(index, "partial", "periodic");
  }
  resume_the_world();
}

void GuardedSink::write_checkpoint(std::uint64_t index,
                                   const std::string& state,
                                   const std::string& reason) {
  // Serializing walks the whole region tree; skip it when the snapshot has
  // nowhere to go (no checkpoint file, and a crash guard with no dump path).
  const bool publish = crash_ != nullptr && crash_->has_dump_path();
  if (!publish && options_.checkpoint_path.empty()) return;
  telemetry::ScopedSpan span("checkpoint", telemetry::SpanCat::kCheckpoint);
  CheckpointMeta meta;
  meta.events = index;
  meta.state = state;
  meta.reason = reason;
  // World is stopped (or the run is finalizing), so the profiler's
  // per-thread counters are stable.
  std::string snapshot =
      serialize_checkpoint(*profiler_, meta, profiler_->stats());
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
  write_epoch_sidecar(reason);
}

void GuardedSink::write_epoch_sidecar(const std::string& reason) {
  // The flight recorder's ring rides along with every checkpoint: force an
  // epoch boundary (the world is stopped, so the window is stable and every
  // pending micro-batch has been drained), then persist the surviving ring
  // to `<checkpoint>.epochs` so the time-resolved history has the same
  // crash-survival story as the checkpoint itself. Sidecar IO failure is
  // isolated: the checkpoint must never be lost to an epoch-file problem.
  core::FlightRecorder& recorder = profiler_->recorder();
  if (!recorder.enabled() || options_.checkpoint_path.empty()) return;
  recorder.flush(core::EpochSeal::kCheckpoint);
  (void)reason;
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

void GuardedSink::on_loop_enter(int tid, instrument::LoopId id) {
  threading::ThreadRegistry::ReentrancyGuard reent;
  if (!reent.engaged()) [[unlikely]] {
    reentrant_drops_.fetch_add(1, std::memory_order_relaxed);
    telemetry::counter("sink.reentrant_drops").add(1);
    return;
  }
  if (precise_) (void)begin_event();
  // Loop structure events always flow — region attribution must stay exact
  // even when access events are suppressed. Node creation synchronizes with
  // sparse conversion through the per-node child locks, so no safepoint is
  // needed here.
  profiler_->on_loop_enter(tid, id);
}

void GuardedSink::on_loop_exit(int tid) {
  threading::ThreadRegistry::ReentrancyGuard reent;
  if (!reent.engaged()) [[unlikely]] {
    reentrant_drops_.fetch_add(1, std::memory_order_relaxed);
    telemetry::counter("sink.reentrant_drops").add(1);
    return;
  }
  if (precise_) (void)begin_event();
  profiler_->on_loop_exit(tid);
}

void GuardedSink::on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                            instrument::AccessKind kind) {
  // An instrumented allocator (or any client hook) that fires while the
  // profiler is itself allocating would recurse into the sink forever; the
  // outermost-entry guard turns that into a counted drop instead.
  threading::ThreadRegistry::ReentrancyGuard reent;
  if (!reent.engaged()) [[unlikely]] {
    reentrant_drops_.fetch_add(1, std::memory_order_relaxed);
    telemetry::counter("sink.reentrant_drops").add(1);
    return;
  }
  t_last_tid = tid;  // remembered for the thread-exit micro-batch drain
  if (precise_) {
    (void)begin_event();
    if (guard_ != nullptr && guard_->suppress_accesses()) {
      suppressed_.fetch_add(1, std::memory_order_relaxed);
      telemetry::counter("sink.suppressed").add(1);
      return;
    }
  } else if (!gate_) {
    profiler_->on_access(tid, addr, size, kind);
    return;
  }
  // Coarse mode needs no suppression check: suppression is event-budget
  // driven, and an event budget forces precise mode. Its budget poll is the
  // safepoint check itself (the budget bit lives in the pause word).
  Slot& s = slots_[static_cast<std::size_t>(tid) & 63];
  safepoint_enter(s);
  profiler_->on_access(tid, addr, size, kind);
  safepoint_leave(s);
}

void GuardedSink::on_drain(int tid) {
  threading::ThreadRegistry::ReentrancyGuard reent;
  if (!reent.engaged()) [[unlikely]] {
    reentrant_drops_.fetch_add(1, std::memory_order_relaxed);
    telemetry::counter("sink.reentrant_drops").add(1);
    return;
  }
  // No begin_event() and no suppression check: the drained accesses were
  // indexed and admitted when they entered the batch; losing them to a
  // budget decision now would un-count admitted events.
  if (!gate_) {
    profiler_->on_drain(tid);
    return;
  }
  Slot& s = slots_[static_cast<std::size_t>(tid) & 63];
  safepoint_enter(s);
  profiler_->on_drain(tid);
  safepoint_leave(s);
}

void GuardedSink::finalize() {
  if (!precise_) {
    // No per-event counting happened; stamp the closest equivalent. The
    // profiler counts an access when its micro-batch drains, so drain the
    // last batches first.
    profiler_->flush_all();
    events_.store(profiler_->stats().accesses, std::memory_order_relaxed);
  }
  // Gauges describe this sink's run; the per-instance atomics above stay the
  // authoritative counts (tests run several sinks in one process).
  telemetry::gauge("sink.events").set(events());
  telemetry::gauge("sink.suppressed").set(suppressed());
  telemetry::gauge("sink.reentrant_drops").set(reentrant_drops());
  profiler_->finalize();
  write_checkpoint(events_.load(std::memory_order_relaxed), "complete",
                   "final");
}

inline void GuardedSink::safepoint_enter(Slot& s) noexcept {
  if (asym_) {
    // Asymmetric Dekker: the membarrier in stop_the_world() interposes a
    // full barrier in this thread, so either our store is visible to the
    // maintainer or our (acquire) load sees its pause bit. The acquire
    // also pairs with resume_the_world()'s and the guard check's releases,
    // so post-maintenance structure changes are visible before we touch the
    // profiler.
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
    for (std::uint32_t p; (p = pause_.load(std::memory_order_acquire)) != 0;) {
      // A crossed budget (coarse mode only) parks every appender until one
      // of them wins the maintenance lock and runs the check.
      if ((p & kBudgetCrossed) != 0) coarse_tick();
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
  pause_.fetch_or(kWorldStopped, std::memory_order_seq_cst);
  if (asym_) membarrier_sync();
  for (Slot& s : slots_) {
    while (s.active.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
  }
}

void GuardedSink::resume_the_world() noexcept {
  pause_.fetch_and(~kWorldStopped, std::memory_order_release);
  telemetry::Tracer::end(telemetry::SpanCat::kQuiesce);
}

}  // namespace commscope::resilience
