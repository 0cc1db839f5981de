#include "resilience/resource_guard.hpp"

#include <cstdio>

#include "telemetry/metrics.hpp"

namespace commscope::resilience {

bool ResourceGuard::apply_one_rung(std::uint64_t index,
                                   const std::string& reason) {
  if (profiler_->degrade_exact_to_signature(index, reason)) {
    downshifts_.fetch_add(1, std::memory_order_relaxed);
    telemetry::counter("guard.downshifts").add(1);
    return true;
  }
  if (profiler_->degrade_regions_to_sparse(index, reason)) {
    downshifts_.fetch_add(1, std::memory_order_relaxed);
    telemetry::counter("guard.downshifts").add(1);
    return true;
  }
  if (sampler_ != nullptr) {
    const std::uint64_t before = profiler_->memory_bytes();
    if (sampler_->raise_stride()) {
      char duty[32];
      std::snprintf(duty, sizeof duty, "%.4f", sampler_->duty_cycle());
      profiler_->record_degradation(core::DegradationEvent{
          index, before, profiler_->memory_bytes(), reason,
          std::string("sampling duty cycle lowered to ") + duty +
              " (volumes correctable via scale_factor)"});
      downshifts_.fetch_add(1, std::memory_order_relaxed);
      telemetry::counter("guard.downshifts").add(1);
      return true;
    }
  }
  if (profiler_->degrade_halve_slots(index, reason)) {
    downshifts_.fetch_add(1, std::memory_order_relaxed);
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

  if (options_.mem_budget_bytes != 0) {
    // Walk the ladder until the footprint fits or every rung is spent. The
    // ladder is finite (each rung applies at most once, slot halving
    // bottoms out at 4096), so bound the loop defensively anyway.
    for (int i = 0; i < 64; ++i) {
      if (profiler_->memory_bytes() <= options_.mem_budget_bytes) break;
      if (!apply_one_rung(index, "memory budget exceeded")) {
        if (!exhausted_reported_) {
          exhausted_reported_ = true;
          profiler_->record_degradation(core::DegradationEvent{
              index, profiler_->memory_bytes(), profiler_->memory_bytes(),
              "memory budget exceeded",
              "degradation ladder exhausted; continuing over budget"});
        }
        // Nothing more can help; stop the sensor from re-raising pending on
        // every subsequent allocation.
        watching_.store(false, std::memory_order_relaxed);
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

  // Clear the pending bit last, with release: in coarse mode it lives in the
  // safepoint pause word, so this store is what lets profiling threads back
  // in once the world resumes — and what publishes the ladder's structure
  // mutations to their acquire on entry. The world is stopped here, so any
  // crossing during the ladder walk simply re-raises the bit on the next
  // tracked allocation.
  pending_->fetch_and(~pending_bit_, std::memory_order_release);
}

}  // namespace commscope::resilience
