// Dynamic-behaviour (phase) tracking.
//
// Section V.A.4: "applications may transition into different phases of
// computation at runtime ... A useful mechanism should be able to detect
// changes dynamically and thereby notify the optimizer." Approaches that
// produce one static whole-program pattern get multi-phase programs wrong;
// DiscoPoP "fully supports this feature".
//
// The flight recorder's phase partition (ProfilerOptions::phase_window_bytes)
// slices the dependency stream into fixed-communication-volume windows, each
// with its own delta matrix (Profiler::phase_timeline()). detect_phases()
// then merges consecutive windows whose matrices are cosine-similar, yielding
// the program's communication phases and their transition points.
#pragma once

#include <cstddef>
#include <vector>

#include "core/comm_matrix.hpp"

namespace commscope::core {

/// One detected phase: a run of consecutive windows with a stable pattern.
struct Phase {
  std::size_t first_window = 0;
  std::size_t last_window = 0;  ///< inclusive
  Matrix pattern;               ///< summed matrix over the run
};

/// Window-comparison metric for phase segmentation.
enum class PhaseMetric {
  /// Cosine over the full normalized matrix. Most precise, but sensitive to
  /// which threads happened to run inside a window: under coarse scheduling
  /// (few cores, many threads) two windows of the same program phase can
  /// contain disjoint consumer sets and appear orthogonal.
  kMatrixCosine,
  /// Cosine over the producer-consumer *offset histogram* (mass by
  /// consumer-producer distance). Translation-invariant in thread id, so a
  /// halo exchange looks like "±1 traffic" and an all-to-all like "uniform
  /// offsets" no matter which threads a window sampled — the
  /// scheduling-robust choice for timeline segmentation.
  kOffsetCosine,
};

/// Circular offset histogram of a matrix: entry d holds the total mass at
/// consumer-producer offset (c - p) mod n, for d in [0, n). Circular so a
/// single-consumer window covers the same bins regardless of which consumer
/// it sampled; entry 0 is always zero (no self-communication).
[[nodiscard]] std::vector<double> offset_signature(const Matrix& m);

/// Segments a window timeline into phases: consecutive windows whose
/// signatures (per `metric`) have cosine similarity >= `threshold` belong to
/// the same phase.
[[nodiscard]] std::vector<Phase> detect_phases(
    const std::vector<Matrix>& windows, double threshold = 0.8,
    PhaseMetric metric = PhaseMetric::kMatrixCosine);

}  // namespace commscope::core
