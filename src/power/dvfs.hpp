// DVFS (dynamic voltage/frequency scaling) advisor — the power application
// of communication-phase detection.
//
// Section III.A: "Detecting automatically a communication phase allows for
// decreasing frequency and voltage of the processor which leads to reducing
// power consumption by 30%" (citing Da Costa & Pierson). CommScope's phase
// timeline carries exactly the needed signal: per window, the communicated
// bytes (fixed by construction) and the raw access count, whose ratio is the
// communication *intensity*. Communication-bound windows gain little from
// high clocks (they wait on the memory system), so the advisor plans a lower
// frequency level for them under a user-set slowdown budget and reports the
// projected energy saving of the plan.
//
// The performance/power model is the standard first-order DVFS model:
//   time(f)  = work * (b + (1 - b) * f_max / f)   with boundness b in [0,1]
//   energy(f) = watts(f) * time(f)
// where b is the phase's communication-boundness estimate. Absolute savings
// depend on the level table; the reproduced qualitative claim is that
// communication phases admit large savings at negligible slowdown.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/phase.hpp"

namespace commscope::power {

/// One processor performance state.
struct FrequencyLevel {
  double ghz = 0.0;
  double watts = 0.0;
};

struct DvfsOptions {
  /// Available P-states, highest frequency first. Defaults resemble a
  /// Xeon-class part (turbo / nominal / powersave).
  std::vector<FrequencyLevel> levels = {
      {2.7, 130.0}, {2.0, 95.0}, {1.2, 62.0}};
  /// Intensity (communicated bytes per raw access) at which a window counts
  /// as fully communication-bound; boundness ramps linearly up to it.
  double saturation_intensity = 2.0;
  /// Maximum tolerated per-phase slowdown vs running at the top level.
  double max_slowdown = 1.10;
};

/// Plan entry for one detected phase.
struct PhasePlan {
  std::size_t first_window = 0;
  std::size_t last_window = 0;
  double intensity = 0.0;   ///< bytes per access
  double boundness = 0.0;   ///< communication-boundness estimate in [0,1]
  FrequencyLevel chosen{};
  double est_slowdown = 1.0;  ///< vs the top frequency level
  double work = 0.0;          ///< access-count work proxy
};

struct DvfsPlan {
  std::vector<PhasePlan> phases;
  double baseline_energy = 0.0;  ///< all phases at the top level
  double planned_energy = 0.0;
  double saving_fraction = 0.0;  ///< 1 - planned/baseline
  double overall_slowdown = 1.0;
  [[nodiscard]] std::string to_string() const;
};

/// Builds a frequency plan for a phase-segmented timeline. `windows` and
/// `accesses` come from Profiler::phase_timeline() /
/// phase_window_accesses(); phases are segmented internally with the
/// scheduling-robust offset metric. `accesses` is exact in a single-thread
/// replay; in a live run a window may miss up to stride - 1 events per
/// other thread (the flight recorder's coalescing stride, at most 64), which
/// then count toward a later window.
[[nodiscard]] DvfsPlan plan_dvfs(const std::vector<core::Matrix>& windows,
                                 const std::vector<std::uint64_t>& accesses,
                                 const DvfsOptions& options = {});

}  // namespace commscope::power
