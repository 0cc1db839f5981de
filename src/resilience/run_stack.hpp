// RunSpec and RunStack — one profiling configuration and the stack it builds.
//
// RunSpec::from_flags() is the one place command-line flags become options;
// it builds nothing, so a malformed value throws std::invalid_argument (the
// CLI's exit 2) before profiling starts. RunStack builds the profiler and,
// only for a guarded() spec, the fault injector (as the profiler's memory
// observer), the ResourceGuard, the armed CrashGuard and the GuardedSink.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "resilience/guarded_sink.hpp"
#include "support/args.hpp"

namespace commscope::resilience {

/// Events between checkpoints when --checkpoint has no --checkpoint-every.
inline constexpr std::uint64_t kDefaultCheckpointEvery = 65536;

struct RunSpec {
  core::ProfilerOptions profiler;
  GuardOptions guard;
  GuardedSink::Options sink;
  double watchdog_seconds = 0.0;  ///< --timeout; 0 = no watchdog
  /// $COMMSCOPE_FAULT, kept only when this layer acts on one of its clauses
  /// (FaultPlan::any()): a telemetry-only plan attaches no injector.
  std::optional<FaultPlan> faults;

  /// Maps the profile and resilience flags onto a spec with `threads` as
  /// the matrix dimension; an absent flag keeps the field's default.
  [[nodiscard]] static RunSpec from_flags(const support::ArgParser& args,
                                          int threads);

  /// A budget, checkpoint, watchdog or fault plan needs the GuardedSink.
  [[nodiscard]] bool guarded() const noexcept;
};

class RunStack {
 public:
  explicit RunStack(const RunSpec& spec);
  /// Disarms the crash guard (cancelling the watchdog) and clears the memory
  /// observer; then the members die in reverse order, sink first.
  ~RunStack();
  RunStack(const RunStack&) = delete;
  RunStack& operator=(const RunStack&) = delete;

  [[nodiscard]] core::Profiler& profiler() noexcept { return *profiler_; }
  /// Where events go: the GuardedSink when guarded, else the profiler.
  [[nodiscard]] instrument::AccessSink& sink() noexcept {
    if (sink_ != nullptr) return *sink_;
    return *profiler_;
  }

 private:
  std::unique_ptr<core::Profiler> profiler_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<ResourceGuard> guard_;
  std::unique_ptr<GuardedSink> sink_;
};

}  // namespace commscope::resilience
