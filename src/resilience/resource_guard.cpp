#include "resilience/resource_guard.hpp"

#include "telemetry/metrics.hpp"

namespace commscope::resilience {

bool ResourceGuard::apply_one_rung(std::uint64_t index,
                                   const std::string& reason) {
  if (profiler_->degrade_exact_to_signature(index, reason) ||
      profiler_->degrade_regions_to_sparse(index, reason) ||
      profiler_->degrade_halve_slots(index, reason)) {
    telemetry::counter("guard.downshifts").add(1);
    return true;
  }
  return false;
}

void ResourceGuard::check(std::uint64_t index) {
  telemetry::counter("guard.checks").add(1);
  // An injected allocation failure is treated as acute memory pressure:
  // take exactly one rung, the way a real failed reservation would force a
  // downshift rather than an abort.
  if (injector_ != nullptr && injector_->consume_alloc_failure()) {
    (void)apply_one_rung(index, "injected allocation failure");
  }

  if (options_.mem_budget_bytes != 0 && !exhausted_) {
    // Walk the ladder until the footprint fits or every rung is spent. The
    // ladder is finite (each rung applies at most once, slot halving
    // bottoms out at 4096), so bound the loop defensively anyway.
    for (int i = 0; i < 64; ++i) {
      if (profiler_->memory_bytes() <= options_.mem_budget_bytes) break;
      if (!apply_one_rung(index, "memory budget exceeded")) {
        // Nothing more can help: record it once, and stop action_pending()
        // from stopping the world at every later mark for it.
        exhausted_ = true;
        profiler_->record_degradation(core::DegradationEvent{
            index, profiler_->memory_bytes(), profiler_->memory_bytes(),
            "memory budget exceeded",
            "degradation ladder exhausted; continuing over budget"});
        break;
      }
    }
  }

  if (options_.event_budget != 0 && index > options_.event_budget &&
      !suppress_.load(std::memory_order_relaxed)) {
    suppress_.store(true, std::memory_order_relaxed);
    profiler_->record_degradation(core::DegradationEvent{
        index, profiler_->memory_bytes(), profiler_->memory_bytes(),
        "event budget exhausted",
        "further access events suppressed (volumes freeze; region "
        "structure stays exact)"});
  }
}

}  // namespace commscope::resilience
