// Flight-recorder unit suite: seal triggers, the bounded overwrite-and-count
// ring, sparse-delta fidelity, epoch-file IO under hostile input, the
// run-to-run diff math behind `commscope diff`, and the report renderers.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/comm_diff.hpp"
#include "core/comm_matrix.hpp"
#include "core/epoch_io.hpp"
#include "core/flight_recorder.hpp"
#include "core/timeline_report.hpp"
#include "instrument/loop_registry.hpp"

namespace cc = commscope::core;
namespace ci = commscope::instrument;

namespace {

cc::FlightRecorderOptions opts(int threads, std::uint64_t every,
                               std::uint32_t ring = 0) {
  cc::FlightRecorderOptions o;
  o.threads = threads;
  o.every_accesses = every;
  o.capacity = ring;
  return o;
}

/// Hand-built timeline for the IO/diff/report halves (no live recorder
/// needed).
cc::EpochTimeline make_timeline() {
  cc::EpochTimeline t;
  t.threads = 4;
  t.sealed = 3;
  t.dropped = 1;
  t.loop_labels.emplace_back(7, "lu:k-loop");
  for (std::uint64_t i = 1; i <= 2; ++i) {
    cc::EpochSample e;
    e.index = i;
    e.first_access = i * 100;
    e.last_access = i * 100 + 100;
    e.dependencies = 5 * i;
    e.bytes = 64 * i;
    e.reason = i == 2 ? cc::EpochSeal::kFinalize : cc::EpochSeal::kAccesses;
    e.cells.push_back(cc::EpochCell{0, 1, 48 * i});
    e.cells.push_back(cc::EpochCell{2, 3, 16 * i});
    e.loops.push_back(cc::EpochLoopShare{ci::kNoLoop, 16 * i});
    e.loops.push_back(cc::EpochLoopShare{7, 48 * i});
    t.epochs.push_back(e);
  }
  return t;
}

}  // namespace

// --- data model -------------------------------------------------------------

TEST(EpochModel, DenseReconstructionMatchesCells) {
  const cc::EpochTimeline t = make_timeline();
  const cc::Matrix m = t.epochs[0].dense(4);
  EXPECT_EQ(m.at(0, 1), 48u);
  EXPECT_EQ(m.at(2, 3), 16u);
  EXPECT_EQ(m.total(), 64u);
  const cc::Matrix sum = t.total();
  EXPECT_EQ(sum.at(0, 1), 48u + 96u);
  EXPECT_EQ(sum.total(), 64u + 128u);
}

TEST(EpochModel, LabelResolution) {
  const cc::EpochTimeline t = make_timeline();
  EXPECT_EQ(t.label_of(7), "lu:k-loop");
  EXPECT_EQ(t.label_of(ci::kNoLoop), "<root>");
  EXPECT_EQ(t.label_of(99), "loop#99");
}

TEST(EpochModel, SealReasonRoundTrip) {
  for (const cc::EpochSeal r :
       {cc::EpochSeal::kAccesses, cc::EpochSeal::kBatches, cc::EpochSeal::kTimer,
        cc::EpochSeal::kCheckpoint, cc::EpochSeal::kFinalize,
        cc::EpochSeal::kReplay, cc::EpochSeal::kVolume}) {
    EXPECT_EQ(cc::epoch_seal_from_string(cc::to_string(r)), r);
  }
  EXPECT_THROW((void)cc::epoch_seal_from_string("bogus"), std::runtime_error);
}

// --- epoch IO ---------------------------------------------------------------

TEST(EpochIo, RoundTripPreservesEverything) {
  const cc::EpochTimeline want = make_timeline();
  std::stringstream ss;
  cc::write_epochs(ss, want);
  const cc::EpochTimeline got = cc::read_epochs(ss);
  EXPECT_EQ(got.threads, want.threads);
  EXPECT_EQ(got.sealed, want.sealed);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.loop_labels, want.loop_labels);
  ASSERT_EQ(got.epochs.size(), want.epochs.size());
  for (std::size_t i = 0; i < want.epochs.size(); ++i) {
    EXPECT_EQ(got.epochs[i], want.epochs[i]) << "epoch " << i;
  }
}

TEST(EpochIo, RejectsBadMagicTruncationAndCorruption) {
  std::stringstream ss;
  cc::write_epochs(ss, make_timeline());
  const std::string good = ss.str();

  {
    std::istringstream bad("commscope-matrix 1\n");
    EXPECT_THROW((void)cc::read_epochs(bad), std::runtime_error);
  }
  {
    std::istringstream truncated(good.substr(0, good.size() / 2));
    EXPECT_THROW((void)cc::read_epochs(truncated), std::runtime_error);
  }
  {
    // Flip a digit inside a payload line: the CRC trailer must catch it.
    std::string corrupt = good;
    const std::size_t pos = corrupt.find("bytes 64");
    ASSERT_NE(pos, std::string::npos);
    corrupt[pos + 6] = '9';
    std::istringstream in(corrupt);
    EXPECT_THROW((void)cc::read_epochs(in), std::runtime_error);
  }
  {
    // A hostile epoch count must be rejected before allocation.
    std::istringstream huge(
        "commscope-epochs 1\nthreads 4\nsealed 999999999999 dropped 0\n"
        "loops 0\n");
    EXPECT_THROW((void)cc::read_epochs(huge), std::runtime_error);
  }
}

// --- diff math --------------------------------------------------------------

TEST(CommDiff, SelfDiffIsExactlyZeroAndClean) {
  const cc::EpochTimeline t = make_timeline();
  const cc::TimelineDiff d = cc::diff_timelines(t, t);
  EXPECT_EQ(d.total.l1, 0u);
  EXPECT_EQ(d.total.max_cell, 0u);
  EXPECT_DOUBLE_EQ(d.total.norm_l1, 0.0);
  EXPECT_DOUBLE_EQ(d.worst_epoch_l1, 0.0);
  EXPECT_FALSE(d.regressed);
  EXPECT_NE(d.verdict.find("clean"), std::string::npos) << d.verdict;
}

TEST(CommDiff, MatrixDistanceKnownValues) {
  cc::Matrix a(2), b(2);
  a.at(0, 1) = 100;
  b.at(0, 1) = 60;
  b.at(1, 0) = 40;
  const cc::MatrixDistance d = cc::matrix_distance(a, b);
  EXPECT_EQ(d.l1, 80u);        // |100-60| + |0-40|
  EXPECT_EQ(d.max_cell, 40u);
  EXPECT_DOUBLE_EQ(d.norm_l1, 0.8);  // 80 / max(100, 100)
  EXPECT_DOUBLE_EQ(d.norm_max_cell, 0.4);
}

TEST(CommDiff, PadsMismatchedDimensions) {
  cc::Matrix a(2), b(4);
  a.at(0, 1) = 10;
  b.at(0, 1) = 10;
  b.at(3, 0) = 5;
  const cc::MatrixDistance d = cc::matrix_distance(a, b);
  EXPECT_EQ(d.l1, 5u);
  EXPECT_EQ(d.max_cell, 5u);
}

TEST(CommDiff, RegressionCrossesThresholdAndNamesIt) {
  cc::EpochTimeline a = make_timeline();
  cc::EpochTimeline b = make_timeline();
  b.epochs[1].cells[0].bytes *= 10;  // move real volume, not jitter
  const cc::TimelineDiff d = cc::diff_timelines(a, b);
  EXPECT_TRUE(d.regressed);
  EXPECT_NE(d.verdict.find("REGRESSED"), std::string::npos) << d.verdict;
}

TEST(CommDiff, LoopDriftIsKeyedByLabel) {
  cc::EpochTimeline a = make_timeline();
  cc::EpochTimeline b = make_timeline();
  // Same loop volume under a different id: label-keyed matching must see no
  // drift (registration order is not part of the contract).
  b.loop_labels.clear();
  b.loop_labels.emplace_back(12, "lu:k-loop");
  for (cc::EpochSample& e : b.epochs) {
    for (cc::EpochLoopShare& s : e.loops) {
      if (s.loop == 7) s.loop = 12;
    }
  }
  const cc::TimelineDiff d = cc::diff_timelines(a, b);
  for (const cc::LoopDrift& l : d.loops) {
    EXPECT_DOUBLE_EQ(l.drift, 0.0) << l.label;
  }
}

TEST(BenchDiff, ParsesOwnJsonAndFlagsRegression) {
  const std::string base =
      "{\"bench\": \"ingest_throughput\", \"sweep\": [\n"
      "  {\"batch\": 0, \"events_per_sec\": 1000000, \"speedup\": 1},\n"
      "  {\"batch\": 64, \"events_per_sec\": 3000000, \"speedup\": 3}\n]}";
  const std::vector<cc::BenchPoint> pts = cc::parse_bench_json(base);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[1].batch, 64u);
  EXPECT_DOUBLE_EQ(pts[1].events_per_sec, 3000000.0);

  EXPECT_FALSE(cc::diff_bench(base, base).regressed);  // self-diff clean

  const std::string slow =
      "{\"bench\": \"ingest_throughput\", \"sweep\": [\n"
      "  {\"batch\": 0, \"events_per_sec\": 1000000, \"speedup\": 1},\n"
      "  {\"batch\": 64, \"events_per_sec\": 2000000, \"speedup\": 2}\n]}";
  const cc::BenchDiff d = cc::diff_bench(base, slow, 0.25);
  EXPECT_TRUE(d.regressed);  // -33% at batch 64 crosses the 25% gate
  ASSERT_EQ(d.points.size(), 2u);
  EXPECT_FALSE(d.points[0].regressed);
  EXPECT_TRUE(d.points[1].regressed);

  EXPECT_THROW((void)cc::parse_bench_json("{\"not\": \"a bench\"}"),
               std::runtime_error);
}

TEST(BenchDiff, FloorGatesAbsoluteBatchSpeedup) {
  const std::string base =
      "{\"bench\": \"ingest_throughput\", \"sweep\": [\n"
      "  {\"batch\": 0, \"events_per_sec\": 1000000, \"speedup\": 1},\n"
      "  {\"batch\": 64, \"events_per_sec\": 1400000, \"speedup\": 1.4}\n]}";

  // Self-diff passes a 1.0 floor: the batched point genuinely wins.
  cc::BenchFloor floor;
  floor.min_speedup = 1.0;
  EXPECT_FALSE(cc::diff_bench(base, base, 0.25, floor).regressed);

  // A fresh sweep whose throughput matches baseline point-for-point (so the
  // relative gate is silent) but whose batch-64 point no longer beats the
  // inline path must still fail: the floor is an absolute claim.
  const std::string batching_lost =
      "{\"bench\": \"ingest_throughput\", \"sweep\": [\n"
      "  {\"batch\": 0, \"events_per_sec\": 1000000, \"speedup\": 1},\n"
      "  {\"batch\": 64, \"events_per_sec\": 1400000, \"speedup\": 0.93}\n]}";
  const cc::BenchDiff lost = cc::diff_bench(base, batching_lost, 0.25, floor);
  EXPECT_TRUE(lost.regressed);
  EXPECT_NE(lost.verdict.find("FLOOR"), std::string::npos) << lost.verdict;

  // A sweep that dropped the gated batch size entirely cannot pass the gate
  // by omission.
  const std::string no_point =
      "{\"bench\": \"ingest_throughput\", \"sweep\": [\n"
      "  {\"batch\": 0, \"events_per_sec\": 1000000, \"speedup\": 1},\n"
      "  {\"batch\": 128, \"events_per_sec\": 1500000, \"speedup\": 1.5}\n]}";
  const cc::BenchDiff missing = cc::diff_bench(base, no_point, 0.25, floor);
  EXPECT_TRUE(missing.regressed);
  EXPECT_NE(missing.verdict.find("FLOOR"), std::string::npos)
      << missing.verdict;

  // min_speedup = 0 disables the floor (the default): the same sweeps are
  // judged by the relative gate alone.
  EXPECT_FALSE(cc::diff_bench(base, batching_lost, 0.25).regressed);
}

// --- report renderers -------------------------------------------------------

TEST(TimelineReport, RenderersEmitTheirMarkers) {
  cc::ReportModel model;
  model.title = "unit";
  model.timeline = make_timeline();

  std::ostringstream text;
  cc::render_text(text, model);
  EXPECT_NE(text.str().find("== unit =="), std::string::npos);
  EXPECT_NE(text.str().find("epoch"), std::string::npos);

  std::ostringstream json;
  cc::render_json(json, model);
  EXPECT_EQ(json.str().rfind("{\"title\":\"unit\"", 0), 0u);
  EXPECT_NE(json.str().find("\"epochs\":["), std::string::npos);

  std::ostringstream html;
  cc::render_html(html, model);
  EXPECT_EQ(html.str().rfind("<!doctype html>", 0), 0u);
  EXPECT_NE(html.str().find("</html>"), std::string::npos);
  // The embedded JSON must not be able to close its own <script> tag.
  EXPECT_EQ(html.str().find("</script>\""), std::string::npos);
}

TEST(TimelineReport, EmptyTimelineRendersHint) {
  cc::ReportModel model;
  model.title = "empty";
  model.timeline.threads = 2;
  std::ostringstream text;
  cc::render_text(text, model);
  EXPECT_NE(text.str().find("no epochs recorded"), std::string::npos);
}

// --- live recorder ----------------------------------------------------------

TEST(FlightRecorder, DisabledRecorderDoesNothing) {
  cc::FlightRecorder r(opts(4, 0));
  EXPECT_FALSE(r.enabled());
  for (int i = 0; i < 100; ++i) r.count_access();
  r.add(0, 1, 8, ci::kNoLoop);
  r.flush(cc::EpochSeal::kFinalize);
  EXPECT_EQ(r.epochs_sealed(), 0u);
  EXPECT_TRUE(r.timeline().epochs.empty());
}

TEST(FlightRecorder, AccessTriggerSealsEveryN) {
  cc::FlightRecorder r(opts(4, 10));
  ASSERT_TRUE(r.enabled());
  for (int i = 0; i < 35; ++i) {
    r.add(0, 1, 8, ci::kNoLoop);
    r.count_access();
  }
  EXPECT_EQ(r.epochs_sealed(), 3u);
  r.flush(cc::EpochSeal::kFinalize);  // the 5-access remainder
  const cc::EpochTimeline t = r.timeline();
  ASSERT_EQ(t.epochs.size(), 4u);
  EXPECT_EQ(t.epochs[0].last_access - t.epochs[0].first_access, 10u);
  EXPECT_EQ(t.epochs[3].last_access, 35u);
  EXPECT_EQ(t.epochs[3].reason, cc::EpochSeal::kFinalize);
  EXPECT_EQ(t.total().at(0, 1), 35u * 8u);
}

TEST(FlightRecorder, RingOverwritesOldestAndCounts) {
  cc::FlightRecorder r(opts(2, 1, /*ring=*/4));
  for (int i = 0; i < 10; ++i) {
    r.add(0, 1, 8, ci::kNoLoop);
    r.count_access();
  }
  const cc::EpochTimeline t = r.timeline();
  EXPECT_EQ(t.sealed, 10u);
  EXPECT_EQ(t.dropped, 6u);
  ASSERT_EQ(t.epochs.size(), 4u);
  // sealed == dropped + surviving: the honesty contract.
  EXPECT_EQ(t.sealed, t.dropped + t.epochs.size());
  // Newest history survives, oldest first.
  EXPECT_EQ(t.epochs[0].index, 6u);
  EXPECT_EQ(t.epochs[3].index, 9u);
}

TEST(FlightRecorder, EmptyFlushIsSkipped) {
  // every_accesses = 16 keeps the coalescing stride at 1, so a single
  // count_access() publishes immediately and makes the window non-empty.
  cc::FlightRecorder r(opts(2, 16));
  r.flush(cc::EpochSeal::kCheckpoint);
  r.flush(cc::EpochSeal::kCheckpoint);
  EXPECT_EQ(r.epochs_sealed(), 0u);  // no empty epoch per checkpoint
  r.count_access();
  r.flush(cc::EpochSeal::kCheckpoint);
  EXPECT_EQ(r.epochs_sealed(), 1u);
}

TEST(FlightRecorder, CoalescedCountsFoldIntoNextWindow) {
  // Coarse granularity -> stride > 1: events below the stride stay pending
  // in the thread-local slot and are invisible to flush (documented
  // contract — matrix deltas flow through add(), never through the
  // counter), then surface once the stride is crossed.
  cc::FlightRecorder r(opts(2, 1000));  // stride = 1000 / 16 = 62
  r.count_access();
  r.flush(cc::EpochSeal::kCheckpoint);
  EXPECT_EQ(r.epochs_sealed(), 0u);  // still locally pending
  for (int i = 0; i < 64; ++i) r.count_access();  // crosses the stride
  r.flush(cc::EpochSeal::kCheckpoint);
  EXPECT_EQ(r.epochs_sealed(), 1u);
  const cc::EpochTimeline t = r.timeline();
  ASSERT_EQ(t.epochs.size(), 1u);
  EXPECT_EQ(t.epochs[0].last_access, 62u);  // one published batch
}

TEST(FlightRecorder, ReplayModeStampsReplaySeals) {
  cc::FlightRecorderOptions o = opts(2, 2);
  o.replay = true;
  cc::FlightRecorder r(o);
  for (int i = 0; i < 4; ++i) {
    r.add(0, 1, 8, ci::kNoLoop);
    r.count_access();
  }
  const cc::EpochTimeline t = r.timeline();
  ASSERT_EQ(t.epochs.size(), 2u);
  EXPECT_EQ(t.epochs[0].reason, cc::EpochSeal::kReplay);
}

TEST(FlightRecorder, SparseDeltasSumToAccumulatedMatrix) {
  cc::FlightRecorder r(opts(4, 7));
  cc::Matrix want(4);
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  for (int i = 0; i < 200; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    const int p = static_cast<int>(x % 4);
    const int c = static_cast<int>((x >> 8) % 4);
    const std::uint64_t bytes = 1 + (x >> 16) % 64;
    r.add(p, c, bytes, ci::kNoLoop);
    want.at(p, c) += bytes;
    r.count_access();
  }
  r.flush(cc::EpochSeal::kFinalize);
  const cc::EpochTimeline t = r.timeline();
  EXPECT_EQ(t.dropped, 0u);
  EXPECT_TRUE(t.total() == want) << "sparse deltas diverged from dense sum";
}

TEST(FlightRecorder, OutOfRangeEndpointsAreIgnored) {
  // Each endpoint is checked against threads on its own: at 4 threads,
  // (1, 7) and (2, -1) flatten to in-range indices of the 4x4 window and
  // would otherwise be booked into cells (2, 3) and (1, 3).
  cc::FlightRecorderOptions o = opts(4, 1000);
  o.phase_window_bytes = 1 << 20;
  cc::FlightRecorder r(o);
  r.add(1, 7, 64, ci::kNoLoop);
  r.add(2, -1, 64, ci::kNoLoop);
  r.add(-1, 2, 64, ci::kNoLoop);
  r.add(4, 0, 64, ci::kNoLoop);
  r.add(0, 4, 64, ci::kNoLoop);
  r.add(0, 1, 8, ci::kNoLoop);  // the one dependency inside the run
  r.flush(cc::EpochSeal::kFinalize);
  for (const cc::EpochTimeline& t : {r.timeline(), r.phase_windows()}) {
    ASSERT_EQ(t.epochs.size(), 1u);
    const cc::EpochSample& e = t.epochs[0];
    EXPECT_EQ(e.dependencies, 1u);
    EXPECT_EQ(e.bytes, 8u);
    ASSERT_EQ(e.cells.size(), 1u);
    EXPECT_EQ(e.cells[0], (cc::EpochCell{0, 1, 8}));
  }
}

TEST(FlightRecorder, ConsumerShardsMergeIntoOneSortedSample) {
  // Every consumer's column lives in its own shard; a seal merges them
  // back into (producer, consumer) order with one share per loop.
  cc::FlightRecorder r(opts(4, 1000));
  r.add(3, 2, 10, 7);
  r.add(0, 3, 20, 5);
  r.add(1, 0, 30, 7);
  r.add(0, 1, 40, ci::kNoLoop);
  r.add(0, 3, 1, 5);
  r.flush(cc::EpochSeal::kCheckpoint);
  const cc::EpochTimeline t = r.timeline();
  ASSERT_EQ(t.epochs.size(), 1u);
  const cc::EpochSample& e = t.epochs[0];
  EXPECT_EQ(e.dependencies, 5u);
  EXPECT_EQ(e.bytes, 101u);
  const std::vector<cc::EpochCell> cells{
      {0, 1, 40}, {0, 3, 21}, {1, 0, 30}, {3, 2, 10}};
  EXPECT_EQ(e.cells, cells);
  const std::vector<cc::EpochLoopShare> loops{
      {5, 21}, {7, 40}, {ci::kNoLoop, 40}};
  EXPECT_EQ(e.loops, loops);
}

TEST(FlightRecorder, MemoryTrackerChargedAndReleased) {
  commscope::support::MemoryTracker tracker;
  {
    cc::FlightRecorder r(opts(8, 100), &tracker);
    EXPECT_GT(tracker.current(), 0u);
  }
  EXPECT_EQ(tracker.current(), 0u);
}

TEST(FlightRecorder, RingChargedPerKeptSample) {
  commscope::support::MemoryTracker tracker;
  {
    cc::FlightRecorder r(opts(2, 1, /*ring=*/3), &tracker);
    const std::uint64_t window = tracker.current();  // the dense window
    r.count_access();
    EXPECT_EQ(tracker.current(), window + sizeof(cc::EpochSample));
    for (int i = 0; i < 5; ++i) r.count_access();  // 2 more kept, 3 dropped
    EXPECT_EQ(r.epochs_dropped(), 3u);
    EXPECT_EQ(tracker.current(), window + 3 * sizeof(cc::EpochSample));
  }
  EXPECT_TRUE(tracker.balanced());
}
