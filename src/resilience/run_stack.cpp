#include "resilience/run_stack.hpp"

#include <stdexcept>
#include <string>

namespace commscope::resilience {

RunSpec RunSpec::from_flags(const support::ArgParser& args, int threads) {
  RunSpec s;
  core::ProfilerOptions& p = s.profiler;
  p.max_threads = threads;
  p.signature_slots = args.get_int_as("slots", p.signature_slots);
  p.fp_rate = args.get_double_strict("fp-rate", p.fp_rate);
  const std::string backend = args.get("backend", "signature");
  if (backend != "signature" && backend != "exact") {
    throw std::invalid_argument("--backend: expected signature or exact");
  }
  if (backend == "exact") p.backend = core::Backend::kExact;
  p.classify_dependences = args.has("classify");
  p.sparse_region_matrices = args.has("sparse");
  p.phase_window_bytes = args.get_int_as("phases", p.phase_window_bytes);
  p.batch_size = args.get_int_as("batch", p.batch_size);
  p.epoch_accesses = args.get_int_as("epoch-every", p.epoch_accesses);
  p.epoch_millis = args.get_int_as("epoch-ms", p.epoch_millis);
  p.epoch_ring = args.get_int_as("epoch-ring", p.epoch_ring);
  p.perf = args.has("perf");
  GuardOptions& g = s.guard;
  g.mem_budget_bytes = args.get_bytes_strict("mem-budget", g.mem_budget_bytes);
  g.event_budget = args.get_int_as("event-budget", g.event_budget);
  s.sink.checkpoint_path = args.get("checkpoint");
  s.sink.checkpoint_every =
      args.get_int_as("checkpoint-every", kDefaultCheckpointEvery);
  if (s.sink.checkpoint_path.empty()) s.sink.checkpoint_every = 0;
  s.watchdog_seconds = args.get_double_strict("timeout", s.watchdog_seconds);
  s.faults = FaultInjector::plan_from_env();
  if (s.faults.has_value() && !s.faults->any()) s.faults.reset();
  return s;
}

bool RunSpec::guarded() const noexcept {
  return guard.mem_budget_bytes != 0 || guard.event_budget != 0 ||
         !sink.checkpoint_path.empty() || watchdog_seconds > 0.0 ||
         faults.has_value();
}

RunStack::RunStack(const RunSpec& spec)
    : profiler_(std::make_unique<core::Profiler>(spec.profiler)) {
  if (!spec.guarded()) return;
  // Armed first: arm() rejects an overlong path, and nothing built so far
  // needs undoing when it throws.
  CrashGuard& crash = CrashGuard::instance();
  crash.arm(spec.sink.checkpoint_path);
  if (spec.faults.has_value()) {
    injector_ = std::make_unique<FaultInjector>(*spec.faults);
    profiler_->memory().set_observer(injector_.get());
  }
  guard_ = std::make_unique<ResourceGuard>(spec.guard, *profiler_,
                                           injector_.get());
  if (spec.watchdog_seconds > 0.0) crash.start_watchdog(spec.watchdog_seconds);
  sink_ = std::make_unique<GuardedSink>(*profiler_, guard_.get(), spec.sink,
                                        injector_.get(), &crash);
}

RunStack::~RunStack() {
  if (sink_ == nullptr) return;
  CrashGuard::instance().disarm();
  profiler_->memory().set_observer(nullptr);
}

}  // namespace commscope::resilience
