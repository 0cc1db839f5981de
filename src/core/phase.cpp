#include "core/phase.hpp"

#include "support/stats.hpp"

namespace commscope::core {

std::vector<double> offset_signature(const Matrix& m) {
  const int n = m.size();
  std::vector<double> sig(static_cast<std::size_t>(n), 0.0);
  for (int p = 0; p < n; ++p) {
    for (int c = 0; c < n; ++c) {
      sig[static_cast<std::size_t>((c - p + n) % n)] +=
          static_cast<double>(m.at(p, c));
    }
  }
  return sig;
}

namespace {

std::vector<double> signature_of(const Matrix& m, PhaseMetric metric) {
  return metric == PhaseMetric::kMatrixCosine ? m.normalized()
                                              : offset_signature(m);
}

}  // namespace

std::vector<Phase> detect_phases(const std::vector<Matrix>& windows,
                                 double threshold, PhaseMetric metric) {
  std::vector<Phase> phases;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const std::vector<double> cur = signature_of(windows[w], metric);
    bool merged = false;
    if (!phases.empty()) {
      const std::vector<double> prev =
          signature_of(phases.back().pattern, metric);
      if (support::cosine_similarity(prev, cur) >= threshold) {
        phases.back().last_window = w;
        phases.back().pattern += windows[w];
        merged = true;
      }
    }
    if (!merged) {
      Phase p;
      p.first_window = w;
      p.last_window = w;
      p.pattern = windows[w];
      phases.push_back(std::move(p));
    }
  }
  return phases;
}

}  // namespace commscope::core
