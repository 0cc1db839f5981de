// Differential verification of the batched ingest pipeline.
//
// Randomized seeded traces (varying thread counts, loop nests and run
// lengths, including RAW pairs that straddle micro-batch flush boundaries)
// are replayed through the profiler at every batch size and compared:
//
//  * batched vs unbatched SIGNATURE runs must be bit-identical — same
//    whole-program matrix, same per-region direct matrices in preorder, same
//    stats, same phase timeline. The batch layer is a pure relayout of the
//    ingest loop, so any divergence is a bug, not noise.
//  * the same holds for the EXACT backend and for the classified-dependence
//    path (which drain through the generic ingest_one path).
//  * the same holds for recorded traces of every workload replica, epoch
//    timeline included.
//  * signature vs exact FPR must stay inside the Eq. 2 envelope (see the
//    bound derivation at the FPR test).
//
// Trace shape: threads take turns emitting "runs" of events, recorded as an
// instrument::TraceEvent stream and fed through instrument::replay(). Every
// run ends at a tid switch, where replay() drains the outgoing thread — the
// ordering points the harnesses use — so the global processing order is
// identical at every batch size (within a run only one thread appends;
// across runs the drain empties the batch before the next thread starts).
// Runs are longer than the smaller batch sizes, so batch-full flushes fire
// mid-run and cross-thread RAW pairs straddle those internal flush
// boundaries; the final run ends the trace, so only finalize()'s flush_all()
// drains it and that path is verified too.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/epoch_io.hpp"
#include "core/matrix_io.hpp"
#include "core/profiler.hpp"
#include "core/region_tree.hpp"
#include "instrument/loop_registry.hpp"
#include "instrument/trace.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "threading/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace cc = commscope::core;
namespace ci = commscope::instrument;
namespace cs = commscope::support;
namespace ct = commscope::threading;
namespace cw = commscope::workloads;

namespace {

struct TraceShape {
  int threads = 4;
  int rounds = 6;       ///< turn-taking rounds; each thread runs once per round
  int max_run = 160;    ///< events per run in [1, max_run]
  int words = 512;      ///< distinct 8-byte words in the synthetic arena
  double write_prob = 0.3;
};

ci::LoopId trace_loop(int i) {
  // Declared once; the registry is a process-wide singleton.
  static const ci::LoopId ids[4] = {
      ci::LoopRegistry::instance().declare("diff", "l0"),
      ci::LoopRegistry::instance().declare("diff", "l1"),
      ci::LoopRegistry::instance().declare("diff", "l2"),
      ci::LoopRegistry::instance().declare("diff", "l3"),
  };
  return ids[i & 3];
}

/// Seeded trace generator. Addresses are synthetic (the detector only hashes
/// them); the shared word pool makes cross-thread RAW pairs common.
std::vector<ci::TraceEvent> make_trace(std::uint64_t seed,
                                       const TraceShape& shape) {
  cs::SplitMix64 rng(seed);
  ci::TraceRecorder rec;
  std::vector<int> depth(static_cast<std::size_t>(shape.threads), 0);
  for (int t = 0; t < shape.threads; ++t) rec.on_thread_begin(t);
  for (int round = 0; round < shape.rounds; ++round) {
    for (int t = 0; t < shape.threads; ++t) {
      int& d = depth[static_cast<std::size_t>(t)];
      const int run_len =
          1 + static_cast<int>(rng.next_below(
                  static_cast<std::uint64_t>(shape.max_run)));
      for (int i = 0; i < run_len; ++i) {
        const double roll = rng.next_double();
        if (roll < 0.08 && d < 3) {
          rec.on_loop_enter(t, trace_loop(static_cast<int>(rng.next_below(4))));
          ++d;
        } else if (roll < 0.14 && d > 0) {
          rec.on_loop_exit(t);
          --d;
        } else {
          const std::uintptr_t addr =
              0x100000u +
              8u * rng.next_below(static_cast<std::uint64_t>(shape.words));
          const std::uint32_t size = (rng.next() & 1) ? 8 : 4;
          rec.on_access(t, addr, size,
                        rng.next_double() < shape.write_prob
                            ? ci::AccessKind::kWrite
                            : ci::AccessKind::kRead);
        }
      }
      // Close the thread's loops at the end of its last run, so every region
      // sees a balanced enter/exit history (the generator tracks depth, the
      // profiler just replays it).
      for (; round == shape.rounds - 1 && d > 0; --d) rec.on_loop_exit(t);
    }
  }
  return rec.events();
}

std::unique_ptr<cc::Profiler> profile(const std::vector<ci::TraceEvent>& trace,
                                      cc::ProfilerOptions options) {
  auto prof = std::make_unique<cc::Profiler>(options);
  ci::replay(trace, *prof);
  return prof;
}

cc::ProfilerOptions base_options(cc::Backend backend, int threads) {
  cc::ProfilerOptions o;
  o.max_threads = threads;
  o.signature_slots = 1 << 16;
  o.fp_rate = 0.001;
  o.backend = backend;
  o.phase_window_bytes = 4096;  // phase timeline rides along in the diff
  return o;
}

/// Asserts every observable output of `got` equals `want`, cell for cell and
/// node for node.
void expect_identical(const cc::Profiler& want, const cc::Profiler& got,
                      const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_TRUE(want.communication_matrix() == got.communication_matrix())
      << "whole-program matrix diverged";

  const auto ws = want.stats();
  const auto gs = got.stats();
  EXPECT_EQ(ws.accesses, gs.accesses);
  EXPECT_EQ(ws.reads, gs.reads);
  EXPECT_EQ(ws.writes, gs.writes);
  EXPECT_EQ(ws.dependencies, gs.dependencies);
  EXPECT_EQ(want.dropped_events(), got.dropped_events());

  const auto wd = want.dependence_counts();
  const auto gd = got.dependence_counts();
  EXPECT_EQ(wd.raw, gd.raw);
  EXPECT_EQ(wd.war, gd.war);
  EXPECT_EQ(wd.waw, gd.waw);
  EXPECT_EQ(wd.rar, gd.rar);

  const auto wn = want.regions().preorder();
  const auto gn = got.regions().preorder();
  ASSERT_EQ(wn.size(), gn.size()) << "region tree shape diverged";
  for (std::size_t i = 0; i < wn.size(); ++i) {
    EXPECT_EQ(wn[i]->loop(), gn[i]->loop()) << "node " << i;
    EXPECT_EQ(wn[i]->entries(), gn[i]->entries()) << "node " << i;
    EXPECT_TRUE(wn[i]->direct() == gn[i]->direct())
        << "per-region matrix diverged at preorder node " << i << " ("
        << wn[i]->label() << ")";
  }

  const auto wp = want.phase_timeline();
  const auto gp = got.phase_timeline();
  ASSERT_EQ(wp.size(), gp.size()) << "phase timeline length diverged";
  for (std::size_t i = 0; i < wp.size(); ++i) {
    EXPECT_TRUE(wp[i] == gp[i]) << "phase window " << i;
  }
  EXPECT_EQ(want.phase_window_accesses(), got.phase_window_accesses());
}

std::string case_name(std::uint64_t seed, int threads, std::uint32_t batch) {
  std::ostringstream os;
  os << "seed=" << seed << " threads=" << threads << " batch=" << batch;
  return os.str();
}

}  // namespace

// --- bit-identity ----------------------------------------------------------

TEST(Differential, BatchedSignatureBitIdenticalAcrossBatchSizes) {
  const struct { std::uint64_t seed; int threads; } grid[] = {
      {101, 2}, {202, 4}, {303, 8}, {404, 4},
  };
  const std::uint32_t batches[] = {1, 2, 7, 64, 256};
  // A power-of-two slot count reduces the address hash by mask; a prime one
  // (what a non-power-of-two --slots gives) takes the modulo path through
  // drain_batch.
  const std::size_t slot_counts[] = {std::size_t{1} << 16, 65521};
  for (const std::size_t slots : slot_counts) {
    for (const auto& g : grid) {
      TraceShape shape;
      shape.threads = g.threads;
      const auto ops = make_trace(g.seed, shape);
      auto base = base_options(cc::Backend::kAsymmetricSignature, g.threads);
      base.signature_slots = slots;
      const auto baseline = profile(ops, base);
      // The identity check must not pass vacuously: every generated trace
      // has to exercise cross-thread RAW detection and nested-region
      // attribution.
      ASSERT_GT(baseline->stats().dependencies, 0u);
      ASSERT_GT(baseline->regions().node_count(), 1u);
      for (const std::uint32_t b : batches) {
        auto o = base;
        o.batch_size = b;
        expect_identical(*baseline, *profile(ops, o),
                         case_name(g.seed, g.threads, b) +
                             " slots=" + std::to_string(slots));
      }
    }
  }
}

TEST(Differential, BatchedExactBackendBitIdentical) {
  TraceShape shape;
  const auto ops = make_trace(555, shape);
  const auto baseline =
      profile(ops, base_options(cc::Backend::kExact, shape.threads));
  for (const std::uint32_t b : {3u, 64u, 256u}) {
    auto o = base_options(cc::Backend::kExact, shape.threads);
    o.batch_size = b;
    expect_identical(*baseline, *profile(ops, o),
                     case_name(555, shape.threads, b));
  }
}

TEST(Differential, BatchedClassifiedPathBitIdentical) {
  // classify_dependences drains through the generic ingest path (no
  // hash-ahead fast path); both backends must still be batch-invariant.
  for (const auto backend :
       {cc::Backend::kAsymmetricSignature, cc::Backend::kExact}) {
    TraceShape shape;
    const auto ops = make_trace(777, shape);
    auto base = base_options(backend, shape.threads);
    base.classify_dependences = true;
    const auto baseline = profile(ops, base);
    for (const std::uint32_t b : {5u, 64u}) {
      auto o = base;
      o.batch_size = b;
      expect_identical(*baseline, *profile(ops, o),
                       case_name(777, shape.threads, b));
    }
  }
}

TEST(Differential, SparseRegionMatricesBitIdentical) {
  TraceShape shape;
  const auto ops = make_trace(888, shape);
  auto base = base_options(cc::Backend::kAsymmetricSignature, shape.threads);
  base.sparse_region_matrices = true;
  const auto baseline = profile(ops, base);
  auto o = base;
  o.batch_size = 64;
  expect_identical(*baseline, *profile(ops, o),
                   case_name(888, shape.threads, 64));
}

// --- flight-recorder differential (label: recorder) ------------------------

// The epoch timeline is a sparse re-encoding of the same dependency stream
// the whole-program matrix accumulates: with nothing overwritten out of the
// ring, summing every epoch's delta must reproduce the final dense matrix
// bit for bit.
TEST(Differential, EpochDeltasSumToFinalMatrixBitForBit) {
  for (const std::uint64_t seed : {1111ull, 2222ull}) {
    TraceShape shape;
    const auto ops = make_trace(seed, shape);
    auto o = base_options(cc::Backend::kAsymmetricSignature, shape.threads);
    o.epoch_accesses = 256;            // many seals across the run
    o.epoch_ring = cc::kMaxEpochRing;  // keep every epoch: exact identity
    const auto prof = profile(ops, o);
    ASSERT_GT(prof->stats().dependencies, 0u);
    const cc::EpochTimeline t = prof->epoch_timeline();
    ASSERT_GT(t.epochs.size(), 1u) << "trigger never fired; test is vacuous";
    ASSERT_EQ(t.dropped, 0u);
    EXPECT_TRUE(t.total().trimmed(shape.threads) ==
                prof->communication_matrix().trimmed(shape.threads))
        << "seed " << seed << ": epoch deltas diverged from the final matrix";
  }
}

// Micro-batching is a pure relayout of the ingest loop; with the drain
// points fixed by the trace, epoch boundaries — and therefore the entire
// recorded timeline — must be identical at every batch size.
TEST(Differential, EpochTimelineBitIdenticalAcrossBatchSizes) {
  TraceShape shape;
  const auto ops = make_trace(3333, shape);
  auto base = base_options(cc::Backend::kAsymmetricSignature, shape.threads);
  base.epoch_accesses = 257;  // prime: boundaries land mid-batch everywhere
  base.epoch_ring = cc::kMaxEpochRing;
  const cc::EpochTimeline want = profile(ops, base)->epoch_timeline();
  ASSERT_GT(want.epochs.size(), 1u);
  for (const std::uint32_t b : {1u, 7u, 64u, 256u}) {
    auto o = base;
    o.batch_size = b;
    const cc::EpochTimeline got = profile(ops, o)->epoch_timeline();
    SCOPED_TRACE(case_name(3333, shape.threads, b));
    EXPECT_EQ(got.sealed, want.sealed);
    EXPECT_EQ(got.dropped, want.dropped);
    ASSERT_EQ(got.epochs.size(), want.epochs.size());
    for (std::size_t i = 0; i < want.epochs.size(); ++i) {
      EXPECT_EQ(got.epochs[i], want.epochs[i]) << "epoch " << i;
    }
  }
}

// Phase windows are the recorder's volume-sealed partition. The reference
// rebuilds them without it: replay the trace with one epoch per access, then
// regroup those per-access deltas by volume as the phase contract states — a
// window ends right after the dependency that fills it, and the tail ends at
// finalize when it holds bytes.
namespace {

struct PhaseReference {
  std::vector<cc::Matrix> windows;
  std::vector<std::uint64_t> accesses;
};

PhaseReference regroup_by_volume(const std::vector<ci::TraceEvent>& ops,
                                 cc::ProfilerOptions o,
                                 std::uint64_t window_bytes) {
  o.phase_window_bytes = 0;
  o.epoch_accesses = 1;
  o.epoch_ring = cc::kMaxEpochRing;
  const auto prof = profile(ops, o);
  const cc::EpochTimeline t = prof->epoch_timeline();
  EXPECT_EQ(t.dropped, 0u);
  PhaseReference ref;
  cc::Matrix window(o.max_threads);
  std::uint64_t volume = 0;
  std::uint64_t start = 0;
  for (const cc::EpochSample& e : t.epochs) {
    // A seal per access: the epoch opened by access #k (first_access == k)
    // holds that access's dependency, if it had one.
    if (e.dependencies == 0) continue;
    window += e.dense(o.max_threads);
    volume += e.bytes;
    if (volume >= window_bytes) {
      ref.windows.push_back(window);
      ref.accesses.push_back(e.first_access - start);
      start = e.first_access;
      window = cc::Matrix(o.max_threads);
      volume = 0;
    }
  }
  if (volume > 0) {
    ref.windows.push_back(window);
    ref.accesses.push_back(prof->stats().accesses - start);
  }
  return ref;
}

}  // namespace

TEST(Differential, PhaseWindowsMatchFixedVolumeRegrouping) {
  const struct { std::uint64_t seed; int threads; } grid[] = {
      {101, 2}, {202, 4}, {303, 8}, {404, 4},
  };
  for (const auto& g : grid) {
    TraceShape shape;
    shape.threads = g.threads;
    const auto ops = make_trace(g.seed, shape);
    for (const auto backend :
         {cc::Backend::kAsymmetricSignature, cc::Backend::kExact}) {
      for (const std::uint64_t width : {64u, 256u}) {
        const PhaseReference want =
            regroup_by_volume(ops, base_options(backend, g.threads), width);
        ASSERT_GT(want.windows.size(), 1u) << "no volume seal; test is vacuous";
        for (const std::uint32_t b : {0u, 1u, 2u, 7u, 64u, 256u}) {
          auto o = base_options(backend, g.threads);
          o.phase_window_bytes = width;
          o.batch_size = b;
          const auto got = profile(ops, o);
          SCOPED_TRACE(case_name(g.seed, g.threads, b) +
                       " width=" + std::to_string(width) + " backend=" +
                       (backend == cc::Backend::kExact ? "exact" : "sig"));
          EXPECT_EQ(got->phase_window_accesses(), want.accesses);
          const std::vector<cc::Matrix> windows = got->phase_timeline();
          ASSERT_EQ(windows.size(), want.windows.size());
          for (std::size_t i = 0; i < windows.size(); ++i) {
            EXPECT_TRUE(windows[i] == want.windows[i]) << "phase window " << i;
          }
          // Phases alone leave the epoch partition off.
          EXPECT_FALSE(got->recorder().enabled());
          EXPECT_EQ(got->recorder().epochs_sealed(), 0u);
        }
      }
    }
  }
}

// --- cross-ISA determinism (label: differential) ----------------------------
//
// The batched drain dispatches murmur_mix64_batch to an AVX2 kernel when the
// CPU has one. Persisted artifacts (.matrix, .epochs) must not depend on
// that dispatch decision: a trace profiled on an AVX2 machine and the same
// trace profiled with the scalar fallback (COMMSCOPE_NO_SIMD=1, a non-x86
// host, or simd_force_scalar) must serialize to byte-identical files. CI
// runs this suite twice — once dispatched, once under COMMSCOPE_NO_SIMD=1 —
// so the scalar path cannot rot.

namespace {

struct SimdGuard {
  ~SimdGuard() { cs::simd_force_scalar(false); }
};

std::string matrix_bytes(const cc::Profiler& prof) {
  std::ostringstream os;
  cc::write_matrix(os, prof.communication_matrix());
  return os.str();
}

std::string epoch_bytes(const cc::Profiler& prof) {
  std::ostringstream os;
  cc::write_epochs(os, prof.epoch_timeline());
  return os.str();
}

}  // namespace

TEST(Differential, SimdOnOffProducesByteIdenticalMatrixAndEpochFiles) {
  SimdGuard guard;  // never leak the forced-scalar state into other tests
  for (const std::uint64_t seed : {4242ull, 9001ull}) {
    TraceShape shape;
    shape.threads = 8;
    const auto ops = make_trace(seed, shape);
    auto o = base_options(cc::Backend::kAsymmetricSignature, shape.threads);
    o.batch_size = 64;
    o.epoch_accesses = 257;
    o.epoch_ring = cc::kMaxEpochRing;

    cs::simd_force_scalar(false);
    const auto dispatched = profile(ops, o);
    ASSERT_GT(dispatched->stats().dependencies, 0u);
    const std::string matrix_dispatched = matrix_bytes(*dispatched);
    const std::string epochs_dispatched = epoch_bytes(*dispatched);

    cs::simd_force_scalar(true);
    ASSERT_EQ(cs::simd_level(), cs::SimdLevel::kScalar);
    const auto scalar = profile(ops, o);
    const std::string matrix_scalar = matrix_bytes(*scalar);
    const std::string epochs_scalar = epoch_bytes(*scalar);
    cs::simd_force_scalar(false);

    EXPECT_EQ(matrix_dispatched, matrix_scalar)
        << "seed " << seed << ": .matrix bytes depend on SIMD dispatch";
    EXPECT_EQ(epochs_dispatched, epochs_scalar)
        << "seed " << seed << ": .epochs bytes depend on SIMD dispatch";
    expect_identical(*dispatched, *scalar,
                     "simd-on vs simd-off, seed " + std::to_string(seed));
  }
}

TEST(Differential, ScalarForcedBatchedStillMatchesUnbatchedInline) {
  // Close the triangle: forced-scalar batched vs dispatched unbatched. Any
  // kernel-dependence anywhere in the pipeline (hashing, probe positions,
  // slot reduction) would break one leg of it.
  SimdGuard guard;
  TraceShape shape;
  const auto ops = make_trace(6006, shape);
  const auto o = base_options(cc::Backend::kAsymmetricSignature, shape.threads);
  const auto inline_dispatched = profile(ops, o);
  ASSERT_GT(inline_dispatched->stats().dependencies, 0u);
  cs::simd_force_scalar(true);
  auto batched = o;
  batched.batch_size = 64;
  const auto batched_scalar = profile(ops, batched);
  cs::simd_force_scalar(false);
  expect_identical(*inline_dispatched, *batched_scalar,
                   "scalar batched vs dispatched inline");
  EXPECT_EQ(matrix_bytes(*inline_dispatched), matrix_bytes(*batched_scalar));
}

// --- cross-commit pin (label: differential) ---------------------------------
//
// The differentials above compare batch sizes within one build, so a seal
// that moved alike at every batch size would pass them. This pins the epoch
// and phase-window files of one seeded trace to checksums recorded with an
// earlier build: moving a seal, a cell, a count or a loop share changes
// them.

namespace {

/// CRC-32 of `t` as write_epochs() serializes it. Loop ids depend on the
/// order loops were declared in the process, so the trace's loops are
/// rewritten as their index (kNoLoop stays) and the labels dropped: the
/// checksum does not depend on which tests ran first.
std::uint32_t epochs_crc(cc::EpochTimeline t) {
  t.loop_labels.clear();
  for (cc::EpochSample& e : t.epochs) {
    for (cc::EpochLoopShare& share : e.loops) {
      for (int i = 0; i < 4; ++i) {
        if (share.loop == trace_loop(i)) {
          share.loop = static_cast<ci::LoopId>(i);
        }
      }
    }
  }
  std::ostringstream os;
  cc::write_epochs(os, t);
  return cs::crc32(os.str());
}

}  // namespace

TEST(Differential, EpochAndPhaseFilesMatchPinnedChecksums) {
  TraceShape shape;
  shape.rounds = 60;
  const auto ops = make_trace(2020, shape);
  for (const std::uint32_t b : {0u, 64u}) {
    auto o = base_options(cc::Backend::kAsymmetricSignature, shape.threads);
    o.epoch_accesses = 1000;
    o.epoch_ring = cc::kMaxEpochRing;
    o.phase_window_bytes = 4096;
    o.batch_size = b;
    const auto prof = profile(ops, o);
    SCOPED_TRACE(case_name(2020, shape.threads, b));
    const cc::EpochTimeline epochs = prof->epoch_timeline();
    const cc::EpochTimeline phases = prof->recorder().phase_windows();
    ASSERT_GT(epochs.epochs.size(), 3u);
    ASSERT_GT(phases.epochs.size(), 3u);
    EXPECT_EQ(epochs_crc(epochs), 0x1bd0c031u);
    EXPECT_EQ(epochs_crc(phases), 0x64830557u);
  }
}

// --- real-workload replay identity (label: differential) --------------------
//
// The synthetic traces above are shaped to stress the batch layer; this pins
// it on the sharing patterns the paper profiles. Each workload replica is
// recorded once at 4 threads, and its trace is replayed unbatched and at
// batch 64 with both recorder partitions on. The whole-program matrix, the
// region matrices, the epoch timeline and the phase windows must all match.

TEST(Differential, WorkloadTracesReplayBitIdenticalAcrossBatchSizes) {
  constexpr int kThreads = 4;
  ASSERT_EQ(cw::registry().size(), 14u);
  ct::ThreadTeam team(kThreads);
  for (const cw::Workload& w : cw::registry()) {
    ci::TraceRecorder rec;
    ASSERT_TRUE(w.run(cw::Scale::kDev, team, &rec).ok) << w.name;
    auto o = base_options(cc::Backend::kAsymmetricSignature, kThreads);
    o.epoch_accesses = 10007;
    o.epoch_ring = cc::kMaxEpochRing;
    const auto want = profile(rec.events(), o);
    ASSERT_GT(want->epoch_timeline().epochs.size(), 1u) << w.name;
    o.batch_size = 64;
    const auto got = profile(rec.events(), o);
    expect_identical(*want, *got, w.name + " batch=64");
    EXPECT_EQ(epoch_bytes(*want), epoch_bytes(*got)) << w.name;
  }
}

// --- FPR vs exact ----------------------------------------------------------

TEST(Differential, SignatureFprVsExactStaysUnderEq2Bound) {
  // The signature backend diverges from the exact baseline through exactly
  // two mechanisms, both bounded by the Eq. 2 sizing (size_model.hpp):
  //
  //  * bloom false positives on the "a not in read signature" probe SUPPRESS
  //    a dependency (the reader looks already-known). Eq. 2 sizes each slot's
  //    filter so that with t resident readers the per-probe FPR is at most
  //    fp_rate; the expected undercount is <= fp_rate * reads.
  //  * slot aliasing (distinct words hashing to the same slot) can
  //    mis-attribute or double-count a producer. With W words and n slots
  //    the expected number of colliding word pairs is W^2 / (2n) — here
  //    512^2 / (2 * 65536) = 2 — each perturbing at most a handful of edges.
  //
  // The bound below allows 5x the Eq. 2 expectation plus a flat aliasing
  // allowance; the traces are seeded, so the check is deterministic.
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    TraceShape shape;
    const auto ops = make_trace(seed, shape);

    auto sig_o = base_options(cc::Backend::kAsymmetricSignature, shape.threads);
    sig_o.batch_size = 64;
    auto exact_o = base_options(cc::Backend::kExact, shape.threads);
    exact_o.batch_size = 64;
    const auto sig = profile(ops, sig_o);
    const auto exact = profile(ops, exact_o);

    const auto ss = sig->stats();
    const auto es = exact->stats();
    ASSERT_EQ(ss.accesses, es.accesses);
    ASSERT_EQ(ss.reads, es.reads);

    const double fpr_budget =
        5.0 * sig_o.fp_rate * static_cast<double>(ss.reads);
    const double aliasing_budget = 32.0;
    const double bound = fpr_budget + aliasing_budget;
    const double diff = static_cast<double>(
        ss.dependencies > es.dependencies ? ss.dependencies - es.dependencies
                                          : es.dependencies - ss.dependencies);
    EXPECT_LE(diff, bound)
        << "seed=" << seed << " sig=" << ss.dependencies
        << " exact=" << es.dependencies << " reads=" << ss.reads;

    // The matrices must agree in the aggregate to the same tolerance
    // (divergence is per-edge, bytes per edge <= 8).
    const std::uint64_t st = sig->communication_matrix().total();
    const std::uint64_t et = exact->communication_matrix().total();
    const double byte_diff = static_cast<double>(st > et ? st - et : et - st);
    EXPECT_LE(byte_diff, 8.0 * bound) << "seed=" << seed;
  }
}

// --- flush-ordering semantics ----------------------------------------------

TEST(Differential, PartialBatchDrainsOnLoopExitWithInnerAttribution) {
  auto o = base_options(cc::Backend::kAsymmetricSignature, 4);
  o.batch_size = 64;
  cc::Profiler prof(o);
  const ci::LoopId inner = trace_loop(0);
  prof.on_thread_begin(0);
  prof.on_thread_begin(1);
  prof.on_access(0, 0x9000, 8, ci::AccessKind::kWrite);
  prof.on_drain(0);
  prof.on_loop_enter(1, inner);
  prof.on_access(1, 0x9000, 8, ci::AccessKind::kRead);
  EXPECT_EQ(prof.pending_events(1), 1u);  // buffered, not yet detected
  prof.on_loop_exit(1);                   // must drain BEFORE the pop
  EXPECT_EQ(prof.pending_events(1), 0u);
  const auto nodes = prof.regions().preorder();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[1]->loop(), inner);
  EXPECT_EQ(nodes[1]->direct().at(0, 1), 8u)
      << "dependency must attribute to the loop the access ran in";
  EXPECT_EQ(prof.regions().root().direct().at(0, 1), 0u);
}

TEST(Differential, FlushAllAndFinalizeDrainEveryThread) {
  auto o = base_options(cc::Backend::kAsymmetricSignature, 4);
  o.batch_size = 128;
  cc::Profiler prof(o);
  for (int t = 0; t < 4; ++t) {
    prof.on_thread_begin(t);
    for (int i = 0; i < 3; ++i) {
      prof.on_access(t, 0xA000u + 8u * static_cast<unsigned>(i), 8,
                     ci::AccessKind::kWrite);
    }
    EXPECT_EQ(prof.pending_events(t), 3u);
  }
  EXPECT_EQ(prof.stats().accesses, 0u);  // nothing through the detector yet
  prof.flush_all();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(prof.pending_events(t), 0u);
  EXPECT_EQ(prof.stats().accesses, 12u);

  prof.on_access(0, 0xB000, 8, ci::AccessKind::kRead);
  EXPECT_EQ(prof.pending_events(0), 1u);
  prof.finalize();  // finalize() implies flush_all()
  EXPECT_EQ(prof.pending_events(0), 0u);
  EXPECT_EQ(prof.stats().accesses, 13u);
}

TEST(Differential, BatchFullFlushKeepsRingBounded) {
  auto o = base_options(cc::Backend::kAsymmetricSignature, 2);
  o.batch_size = 8;
  cc::Profiler prof(o);
  prof.on_thread_begin(0);
  for (int i = 0; i < 20; ++i) {
    prof.on_access(0, 0xC000u + 8u * static_cast<unsigned>(i), 8,
                   ci::AccessKind::kWrite);
  }
  // 20 = 2 full flushes of 8 + 4 pending.
  EXPECT_EQ(prof.pending_events(0), 4u);
  EXPECT_EQ(prof.stats().accesses, 16u);
}

TEST(Differential, RejectsBatchSizeAboveRingCapacity) {
  auto o = base_options(cc::Backend::kAsymmetricSignature, 2);
  o.batch_size = cc::kMaxBatchSize + 1;
  EXPECT_THROW({ cc::Profiler prof(o); }, std::invalid_argument);
}
