// Phase-window tests: the flight recorder's volume-sealed partition
// (windowing, finalize flush, access counts, isolation from the epoch
// surface) and similarity-based segmentation.
#include <gtest/gtest.h>

#include "core/flight_recorder.hpp"
#include "core/phase.hpp"
#include "telemetry/metrics.hpp"

namespace cc = commscope::core;
namespace ci = commscope::instrument;

namespace {

cc::FlightRecorderOptions phase_options(std::uint64_t window_bytes) {
  cc::FlightRecorderOptions o;
  o.threads = 4;
  o.phase_window_bytes = window_bytes;
  return o;
}

}  // namespace

TEST(PhaseWindows, DisabledTracksNothing) {
  cc::FlightRecorder r(phase_options(0));
  EXPECT_FALSE(r.active());
  r.add(0, 1, 1000, ci::kNoLoop);
  r.flush(cc::EpochSeal::kFinalize);
  EXPECT_TRUE(r.phase_windows().epochs.empty());
}

TEST(PhaseWindows, SealsRightAfterTheDependencyThatFillsTheVolume) {
  cc::FlightRecorder r(phase_options(100));
  r.add(0, 1, 60, ci::kNoLoop);
  EXPECT_TRUE(r.phase_windows().epochs.empty());
  r.add(0, 1, 60, ci::kNoLoop);  // crosses 100
  const cc::EpochTimeline t = r.phase_windows();
  ASSERT_EQ(t.epochs.size(), 1u);
  EXPECT_EQ(t.epochs[0].dense(4).at(0, 1), 120u);
  EXPECT_EQ(t.epochs[0].reason, cc::EpochSeal::kVolume);
}

TEST(PhaseWindows, FinalizeSealsPartialWindowOnce) {
  cc::FlightRecorder r(phase_options(1000));
  r.add(1, 2, 10, ci::kNoLoop);
  r.flush(cc::EpochSeal::kCheckpoint);  // an epoch boundary only
  EXPECT_TRUE(r.phase_windows().epochs.empty());
  r.flush(cc::EpochSeal::kFinalize);
  EXPECT_EQ(r.phase_windows().epochs.size(), 1u);
  r.flush(cc::EpochSeal::kFinalize);  // idempotent when nothing new arrived
  EXPECT_EQ(r.phase_windows().epochs.size(), 1u);
}

TEST(PhaseWindows, SingleThreadAccessCountsAreExact) {
  // No access trigger, so counts coalesce 64 at a time; the sealing
  // thread's unpublished tail still lands in the window it belongs to.
  cc::FlightRecorder r(phase_options(100));
  for (int i = 0; i < 10; ++i) r.count_access();
  r.add(0, 1, 100, ci::kNoLoop);
  for (int i = 0; i < 70; ++i) r.count_access();  // publishes once
  r.add(2, 3, 40, ci::kNoLoop);
  r.flush(cc::EpochSeal::kFinalize);
  const cc::EpochTimeline t = r.phase_windows();
  ASSERT_EQ(t.epochs.size(), 2u);
  EXPECT_EQ(t.epochs[0].first_access, 0u);
  EXPECT_EQ(t.epochs[0].last_access, 10u);
  EXPECT_EQ(t.epochs[1].first_access, 10u);
  EXPECT_EQ(t.epochs[1].last_access, 80u);
}

TEST(PhaseWindows, LeaveTheEpochSurfaceUntouched) {
  const std::uint64_t epochs_before =
      commscope::telemetry::counter("recorder.epochs").value();
  cc::FlightRecorder r(phase_options(8));
  EXPECT_TRUE(r.active());
  EXPECT_FALSE(r.enabled());
  for (int i = 0; i < 100; ++i) {
    r.count_access();
    r.add(0, 1, 8, ci::kNoLoop);
  }
  r.flush(cc::EpochSeal::kFinalize);
  EXPECT_EQ(r.phase_windows().sealed, 100u);
  EXPECT_EQ(r.epochs_sealed(), 0u);
  EXPECT_TRUE(r.timeline().epochs.empty());
  EXPECT_EQ(commscope::telemetry::counter("recorder.epochs").value(),
            epochs_before);
}

TEST(DetectPhases, EmptyTimeline) {
  EXPECT_TRUE(cc::detect_phases({}).empty());
}

TEST(DetectPhases, UniformTimelineIsOnePhase) {
  std::vector<cc::Matrix> windows;
  for (int i = 0; i < 5; ++i) {
    cc::Matrix m(4);
    m.at(0, 1) = 100 + static_cast<std::uint64_t>(i);  // same direction
    windows.push_back(m);
  }
  const auto phases = cc::detect_phases(windows, 0.8);
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].first_window, 0u);
  EXPECT_EQ(phases[0].last_window, 4u);
  EXPECT_EQ(phases[0].pattern.at(0, 1), 100u + 101 + 102 + 103 + 104);
}

TEST(DetectPhases, OrthogonalPatternsSplit) {
  std::vector<cc::Matrix> windows;
  for (int i = 0; i < 3; ++i) {
    cc::Matrix m(4);
    m.at(0, 1) = 50;
    windows.push_back(m);
  }
  for (int i = 0; i < 3; ++i) {
    cc::Matrix m(4);
    m.at(2, 3) = 50;
    windows.push_back(m);
  }
  const auto phases = cc::detect_phases(windows, 0.8);
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].last_window, 2u);
  EXPECT_EQ(phases[1].first_window, 3u);
}

TEST(DetectPhases, ThresholdControlsMergeAggressiveness) {
  cc::Matrix a(2);
  a.at(0, 1) = 100;
  cc::Matrix mix(2);
  mix.at(0, 1) = 100;
  mix.at(1, 0) = 60;
  const std::vector<cc::Matrix> windows{a, mix};
  // cos(a, mix) = 100 / sqrt(100^2+60^2) ~ 0.857.
  EXPECT_EQ(cc::detect_phases(windows, 0.80).size(), 1u);
  EXPECT_EQ(cc::detect_phases(windows, 0.95).size(), 2u);
}

TEST(OffsetSignature, CircularBinning) {
  cc::Matrix m(4);
  m.at(0, 1) = 10;  // offset +1
  m.at(3, 0) = 5;   // offset (0-3+4)%4 = +1
  m.at(2, 0) = 7;   // offset (0-2+4)%4 = +2
  const std::vector<double> sig = cc::offset_signature(m);
  ASSERT_EQ(sig.size(), 4u);
  EXPECT_DOUBLE_EQ(sig[0], 0.0);  // no self-communication
  EXPECT_DOUBLE_EQ(sig[1], 15.0);
  EXPECT_DOUBLE_EQ(sig[2], 7.0);
  EXPECT_DOUBLE_EQ(sig[3], 0.0);
}

TEST(OffsetSignature, ConsumerTranslationInvariance) {
  // Two windows that sampled different single consumers of an all-to-all
  // phase must have identical offset signatures (the scheduling-robustness
  // property the kOffsetCosine metric exists for).
  cc::Matrix w0(8);
  cc::Matrix w5(8);
  for (int p = 0; p < 8; ++p) {
    if (p != 0) w0.at(p, 0) = 100;
    if (p != 5) w5.at(p, 5) = 100;
  }
  EXPECT_EQ(cc::offset_signature(w0), cc::offset_signature(w5));
}

TEST(DetectPhases, OffsetMetricMergesConsumerSlices) {
  // Timeline: two single-consumer slices of the same all-to-all phase, then
  // a halo window. Matrix cosine fragments the first two; offset cosine
  // keeps them in one phase and still splits the halo.
  std::vector<cc::Matrix> windows;
  for (const int consumer : {1, 6}) {
    cc::Matrix w(8);
    for (int p = 0; p < 8; ++p) {
      if (p != consumer) w.at(p, consumer) = 64;
    }
    windows.push_back(w);
  }
  cc::Matrix halo(8);
  for (int i = 0; i + 1 < 8; ++i) {
    halo.at(i, i + 1) = 64;
    halo.at(i + 1, i) = 64;
  }
  windows.push_back(halo);

  EXPECT_EQ(cc::detect_phases(windows, 0.75, cc::PhaseMetric::kMatrixCosine)
                .size(),
            3u);
  const auto offset_phases =
      cc::detect_phases(windows, 0.75, cc::PhaseMetric::kOffsetCosine);
  ASSERT_EQ(offset_phases.size(), 2u);
  EXPECT_EQ(offset_phases[0].last_window, 1u);
}
