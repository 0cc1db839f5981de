// Schedule-fuzzing stress harness tests: the differential self-verification
// contract (guarded pipeline == serial shadow oracle, cell-for-cell), seeded
// determinism, thread churn (a lane's tid passing to a fresh thread), and
// mirrored sampling.
// Scenario sizes are kept small — this suite doubles as the `ctest -L
// stress` tier-1 smoke and must stay fast on a single-core runner; the CLI
// (`commscope stress`) runs the full acceptance grid.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/profiler.hpp"
#include "instrument/loop_registry.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/guarded_sink.hpp"
#include "resilience/stress.hpp"
#include "serve/server.hpp"
#include "serve/shipper.hpp"
#include "support/memtrack.hpp"
#include "telemetry/trace.hpp"

namespace cc = commscope::core;
namespace ci = commscope::instrument;
namespace cr = commscope::resilience;
namespace cs = commscope::support;
namespace ctl = commscope::telemetry;
namespace sv = commscope::serve;

namespace {

cr::StressOptions small_options(cr::StressMode mode) {
  cr::StressOptions o;
  o.seed = 7;
  o.threads = 4;
  o.steps = 800;
  o.mode = mode;
  o.checkpoint_every = 64;  // force the safepoint gate frequently
  return o;
}

}  // namespace

TEST(Stress, LockstepMatchesOracleWithChurn) {
  const cr::StressReport r = cr::run_stress(small_options(cr::StressMode::kLockstep));
  EXPECT_TRUE(r.passed);
  EXPECT_EQ(r.divergent_cells, 0u);
  EXPECT_TRUE(r.deterministic);
  EXPECT_GT(r.accesses, 0u);
  EXPECT_GT(r.churns, 0u);  // thread exit/respawn really happened
  EXPECT_EQ(r.guarded_total, r.oracle_total);
  EXPECT_EQ(r.reentrant_drops, 0u);
}

TEST(Stress, FreeRunMatchesOracleUnderRealConcurrency) {
  const cr::StressReport r = cr::run_stress(small_options(cr::StressMode::kFree));
  EXPECT_TRUE(r.passed);
  EXPECT_EQ(r.divergent_cells, 0u);
  EXPECT_TRUE(r.deterministic);
  EXPECT_EQ(r.churns, 0u);  // churn is a lockstep-only ingredient
  EXPECT_GT(r.guarded_total, 0u);
}

TEST(Stress, DistinctSeedsProduceDistinctSchedules) {
  cr::StressOptions a = small_options(cr::StressMode::kLockstep);
  a.verify_determinism = false;
  cr::StressOptions b = a;
  b.seed = a.seed + 1;
  const cr::StressReport ra = cr::run_stress(a);
  const cr::StressReport rb = cr::run_stress(b);
  EXPECT_TRUE(ra.passed);
  EXPECT_TRUE(rb.passed);
  // Not a hard guarantee, but with 800 steps two seeds colliding on the
  // exact communicated volume would indicate the seed is being ignored.
  EXPECT_NE(ra.guarded_total, rb.guarded_total);
}

TEST(Stress, MirroredSamplingStaysExact) {
  for (const auto mode : {cr::StressMode::kLockstep, cr::StressMode::kFree}) {
    cr::StressOptions o = small_options(mode);
    o.sampling = 0.25;
    const cr::StressReport r = cr::run_stress(o);
    EXPECT_TRUE(r.passed) << "mode=" << cr::to_string(mode);
    EXPECT_EQ(r.divergent_cells, 0u);
  }
}

TEST(Stress, BatchedRunsMatchOracleAtEveryBatchSize) {
  // The harness drains micro-batches at its ordering points (lockstep lane
  // hand-offs, free-mode barriers), so the serial oracle comparison must stay
  // cell-exact at any batch size — including sizes smaller than a lane's
  // longest run, which force batch-full flushes mid-run.
  for (const auto mode : {cr::StressMode::kLockstep, cr::StressMode::kFree}) {
    for (const std::uint32_t batch : {4u, 64u}) {
      cr::StressOptions o = small_options(mode);
      o.batch = batch;
      const cr::StressReport r = cr::run_stress(o);
      EXPECT_TRUE(r.passed)
          << "mode=" << cr::to_string(mode) << " batch=" << batch;
      EXPECT_EQ(r.divergent_cells, 0u);
      EXPECT_EQ(r.guarded_total, r.oracle_total);
      EXPECT_TRUE(r.deterministic);
    }
  }
}

TEST(Stress, BatchedSamplingStaysExact) {
  for (const auto mode : {cr::StressMode::kLockstep, cr::StressMode::kFree}) {
    cr::StressOptions o = small_options(mode);
    o.sampling = 0.25;
    o.batch = 64;
    const cr::StressReport r = cr::run_stress(o);
    EXPECT_TRUE(r.passed) << "mode=" << cr::to_string(mode);
    EXPECT_EQ(r.divergent_cells, 0u);
  }
}

TEST(Stress, SweepCoversSeedByThreadGrid) {
  cr::StressOptions base;
  base.steps = 400;
  std::ostringstream os;
  const bool ok = cr::run_stress_sweep({1, 2}, {2, 3}, base, os);
  EXPECT_TRUE(ok);
  // 2 seeds x 2 thread counts x 2 modes = 8 result lines, all PASS.
  std::size_t lines = 0;
  std::size_t passes = 0;
  std::string line;
  std::istringstream is(os.str());
  while (std::getline(is, line)) {
    ++lines;
    if (line.find(" PASS") != std::string::npos) ++passes;
  }
  EXPECT_EQ(lines, 8u);
  EXPECT_EQ(passes, 8u);
}

TEST(Stress, RejectsOutOfRangeOptions) {
  cr::StressOptions o;
  o.threads = 0;
  EXPECT_THROW((void)cr::run_stress(o), std::invalid_argument);
  o = {};
  o.threads = 65;
  EXPECT_THROW((void)cr::run_stress(o), std::invalid_argument);
  o = {};
  o.sampling = 0.0;
  EXPECT_THROW((void)cr::run_stress(o), std::invalid_argument);
  o = {};
  o.steps = 0;
  EXPECT_THROW((void)cr::run_stress(o), std::invalid_argument);
  o = {};
  o.words = 0;
  EXPECT_THROW((void)cr::run_stress(o), std::invalid_argument);
  o = {};
  o.batch = cc::kMaxBatchSize + 1;
  EXPECT_THROW((void)cr::run_stress(o), std::invalid_argument);
}

// --- micro-batch flush ordering through the guarded pipeline ---------------
//
// The batched ingest pipeline buffers admitted accesses per thread; every
// lifecycle edge that could observe or discard profiler state must drain
// those buffers first. Each test pins one edge: explicit flush (the path
// the exit and fork handler takes), periodic checkpoints, process exit
// itself, and a tid whose thread exits with accesses still buffered.

namespace {

cc::ProfilerOptions batched_profiler_options() {
  cc::ProfilerOptions o;
  o.max_threads = 8;
  o.signature_slots = 1 << 16;
  o.batch_size = 64;
  return o;
}

}  // namespace

TEST(FlushOrdering, GuardedFlushDrainsPendingBatches) {
  cc::Profiler prof(batched_profiler_options());
  cr::GuardedSink::Options so;
  so.checkpoint_every = 1 << 20;  // gate on; no periodic firing at this scale
  cr::GuardedSink sink(prof, nullptr, so);
  sink.on_thread_begin(0);
  sink.on_thread_begin(1);
  sink.on_access(0, 0x5000, 8, ci::AccessKind::kWrite);
  sink.on_access(1, 0x5000, 8, ci::AccessKind::kRead);
  EXPECT_EQ(prof.pending_events(0), 1u);
  EXPECT_EQ(prof.pending_events(1), 1u);
  EXPECT_EQ(prof.stats().accesses, 0u);
  // flush() — the path exit()/fork()/signal-time snapshots take — must stop
  // the world and drain every micro-batch before serializing.
  sink.flush();
  EXPECT_EQ(prof.pending_events(0), 0u);
  EXPECT_EQ(prof.pending_events(1), 0u);
  EXPECT_EQ(prof.stats().accesses, 2u);
  EXPECT_EQ(prof.stats().dependencies, 1u);  // drained in tid order: w then r
}

TEST(FlushOrdering, PeriodicCheckpointDrainsBatch) {
  cc::Profiler prof(batched_profiler_options());
  cr::GuardedSink::Options so;
  so.checkpoint_every = 8;  // no checkpoint_path: serialize/publish only
  cr::GuardedSink sink(prof, nullptr, so);
  sink.on_thread_begin(0);
  for (int i = 0; i < 8; ++i) {
    sink.on_access(0, 0x6000u + 8u * static_cast<unsigned>(i), 8,
                   ci::AccessKind::kWrite);
  }
  // The 8th access reaches the mark after it is admitted, so the checkpoint
  // drains and covers all 8 and leaves the batch empty.
  EXPECT_EQ(prof.stats().accesses, 8u);
  EXPECT_EQ(prof.pending_events(0), 0u);
}

// exit() runs the sink's exit handler: a mid-phase exit with an access still
// buffered leaves a snapshot that covers it.
TEST(FlushOrdering, ExitFlushDrainsActiveSink) {
  const std::string path =
      std::string(::testing::TempDir()) + "stress_exit_flush.ck";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        cc::Profiler prof(batched_profiler_options());
        cr::GuardedSink::Options so;
        so.checkpoint_every = 1 << 20;  // gate on; no periodic firing
        so.checkpoint_path = path;
        cr::GuardedSink sink(prof, nullptr, so);
        sink.on_thread_begin(0);
        sink.on_access(0, 0x7000, 8, ci::AccessKind::kWrite);
        if (prof.pending_events(0) != 1) std::_Exit(1);
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
  const cr::Checkpoint ck = cr::load_checkpoint(path);
  EXPECT_EQ(ck.meta.reason, "flush");
  EXPECT_EQ(ck.meta.state, "partial");
  EXPECT_EQ(ck.meta.events, 1u);
  EXPECT_EQ(ck.stats.accesses, 1u);
  std::remove(path.c_str());
}

namespace {

/// Re-enters the exit path from inside a flush: the drain's first tracked
/// allocation calls flush_active() again, as an exit() from inside the
/// flush would.
struct ReenteringObserver final : cs::AllocObserver {
  int calls = 0;
  void on_tracked_alloc(std::size_t) noexcept override {
    ++calls;
    cr::GuardedSink::flush_active();
  }
};

}  // namespace

// The exit path's per-thread recursion guard: the nested call returns at
// once instead of taking the maintenance lock the outer flush holds (a
// recursion deadlocks here), and one snapshot is written.
TEST(FlushOrdering, ExitFlushDoesNotRecurse) {
  const std::string path =
      std::string(::testing::TempDir()) + "stress_exit_recursion.ck";
  cc::ProfilerOptions po = batched_profiler_options();
  po.backend = cc::Backend::kExact;  // each new address is a tracked cell
  cc::Profiler prof(po);
  cr::GuardedSink::Options so;
  so.checkpoint_every = 1 << 20;
  so.checkpoint_path = path;
  cr::GuardedSink sink(prof, nullptr, so);
  sink.on_thread_begin(0);
  sink.on_access(0, 0x7000, 8, ci::AccessKind::kWrite);
  ASSERT_EQ(prof.pending_events(0), 1u);
  ReenteringObserver observer;
  prof.memory().set_observer(&observer);
  cr::GuardedSink::flush_active();
  prof.memory().set_observer(nullptr);
  EXPECT_GT(observer.calls, 0);
  EXPECT_EQ(sink.checkpoints_written(), 1u);
  EXPECT_EQ(prof.pending_events(0), 0u);
  EXPECT_EQ(cr::load_checkpoint(path).meta.reason, "flush");
  // The guard is released on the way out: a later exit flush runs again.
  cr::GuardedSink::flush_active();
  EXPECT_EQ(sink.checkpoints_written(), 2u);
  std::remove(path.c_str());
}

// With a memory budget alone (no checkpoint, injector or event budget),
// flush() — what the registry's atexit and fork hooks run — must still park
// its appenders before draining their micro-batches. A lane left running
// would append to the batch flush_all() is draining, and the drain would
// lose or double-count accesses.
TEST(FlushOrdering, MemBudgetFlushParksAppenders) {
  constexpr int kLanes = 4;
  constexpr int kPerLane = 200000;
  cc::Profiler prof(batched_profiler_options());
  cr::GuardOptions go;
  go.mem_budget_bytes = 1ULL << 30;  // never crossed: no guard check runs
  cr::ResourceGuard guard(go, prof);
  cr::GuardedSink sink(prof, &guard, {});
  std::atomic<int> running{kLanes};
  std::vector<std::thread> lanes;
  for (int t = 0; t < kLanes; ++t) {
    lanes.emplace_back([&, t] {
      sink.on_thread_begin(t);
      for (int i = 0; i < kPerLane; ++i) {
        sink.on_access(t, 0x100000u + 8u * static_cast<unsigned>(i % 4096), 8,
                       i % 2 == 0 ? ci::AccessKind::kWrite
                                  : ci::AccessKind::kRead);
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  // Paced, so parked lanes still make progress under TSan.
  std::uint64_t flushes = 0;
  while (running.load(std::memory_order_acquire) != 0) {
    sink.flush();
    ++flushes;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (std::thread& l : lanes) l.join();
  sink.finalize();
  EXPECT_GT(flushes, 0u);
  EXPECT_EQ(prof.stats().accesses,
            static_cast<std::uint64_t>(kLanes) * kPerLane);
}

// A tid the profiler drops takes no safepoint slot. Sharing a live thread's
// slot (66 mod 64 is tid 2's) would let the dropped thread's leave clear the
// live thread's mark while it is inside the profiler, and a world stop would
// then drain its batch under it.
TEST(FlushOrdering, OutOfRangeTidTakesNoSafepointSlot) {
  constexpr int kPerLane = 100000;
  cc::Profiler prof(batched_profiler_options());
  cr::GuardedSink::Options so;
  so.checkpoint_every = 1 << 30;  // gate on; no periodic firing
  cr::GuardedSink sink(prof, nullptr, so);
  std::atomic<int> running{2};
  const auto lane = [&](int tid) {
    sink.on_thread_begin(tid);
    for (int i = 0; i < kPerLane; ++i) {
      sink.on_access(tid, 0x200000u + 8u * static_cast<unsigned>(i % 4096), 8,
                     i % 2 == 0 ? ci::AccessKind::kWrite
                                : ci::AccessKind::kRead);
    }
    running.fetch_sub(1, std::memory_order_release);
  };
  std::thread a(lane, 2);
  std::thread b(lane, 66);
  while (running.load(std::memory_order_acquire) != 0) {
    sink.flush();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  a.join();
  b.join();
  sink.finalize();
  EXPECT_EQ(prof.stats().accesses, static_cast<std::uint64_t>(kPerLane));
  EXPECT_EQ(prof.dropped_events(), static_cast<std::uint64_t>(kPerLane) + 1);
}

// Loop events drain their thread's micro-batch (so buffered accesses keep
// their region). On a gated sink that drain must run inside the thread's
// safepoint slot like any other: a world stop that drains every batch would
// otherwise drain the same one under it.
TEST(FlushOrdering, LoopEventDrainsHoldTheSafepoint) {
  constexpr int kLanes = 4;
  constexpr int kLoops = 400;
  constexpr int kPerLoop = 50;
  const ci::LoopId loop =
      ci::LoopRegistry::instance().declare("test_stress", "drained loop");
  cc::Profiler prof(batched_profiler_options());
  cr::GuardedSink::Options so;
  so.checkpoint_every = 512;  // no path: the world stops and drains only
  cr::GuardedSink sink(prof, nullptr, so);
  std::vector<std::thread> lanes;
  for (int t = 0; t < kLanes; ++t) {
    lanes.emplace_back([&, t] {
      sink.on_thread_begin(t);
      for (int l = 0; l < kLoops; ++l) {
        sink.on_loop_enter(t, loop);
        for (int i = 0; i < kPerLoop; ++i) {
          sink.on_access(t, 0x400000u + 8u * static_cast<unsigned>(i), 8,
                         (i + t) % 2 == 0 ? ci::AccessKind::kWrite
                                          : ci::AccessKind::kRead);
        }
        sink.on_loop_exit(t);
      }
    });
  }
  for (std::thread& l : lanes) l.join();
  sink.finalize();
  EXPECT_EQ(prof.stats().accesses,
            static_cast<std::uint64_t>(kLanes) * kLoops * kPerLoop);
}

// At four lanes a checkpoint mark fires late by up to lanes * stride
// accesses, but the index it records is read with the world stopped and
// every batch drained: each checkpoint's index is the accesses it covers,
// and the final one is every access the lanes delivered.
TEST(FlushOrdering, CheckpointIndexIsCoveredAccessesAtFourLanes) {
  constexpr int kLanes = 4;
  constexpr int kPerLane = 30000;
  const std::string path =
      std::string(::testing::TempDir()) + "stress_ck_index.ck";
  std::remove(path.c_str());
  cc::Profiler prof(batched_profiler_options());
  cr::GuardedSink::Options so;
  so.checkpoint_every = 4096;
  so.checkpoint_path = path;
  cr::GuardedSink sink(prof, nullptr, so);
  std::atomic<int> running{kLanes};
  std::vector<std::thread> lanes;
  for (int t = 0; t < kLanes; ++t) {
    lanes.emplace_back([&, t] {
      sink.on_thread_begin(t);
      for (int i = 0; i < kPerLane; ++i) {
        sink.on_access(t, 0x300000u + 8u * static_cast<unsigned>(i % 4096), 8,
                       (i + t) % 2 == 0 ? ci::AccessKind::kWrite
                                        : ci::AccessKind::kRead);
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  std::uint64_t loaded = 0;
  while (running.load(std::memory_order_acquire) != 0) {
    try {
      const cr::Checkpoint ck = cr::load_checkpoint(path);
      EXPECT_EQ(ck.meta.events, ck.stats.accesses);
      ++loaded;
    } catch (const std::runtime_error&) {
      // Not written yet.
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  for (std::thread& l : lanes) l.join();
  sink.finalize();
  const cr::Checkpoint ck = cr::load_checkpoint(path);
  EXPECT_EQ(ck.meta.state, "complete");
  EXPECT_EQ(ck.meta.events, static_cast<std::uint64_t>(kLanes) * kPerLane);
  EXPECT_EQ(ck.stats.accesses, ck.meta.events);
  // 120000 ticks cross 29 marks, less what the lanes' unpublished
  // remainders (under one stride each) hold back, plus the final snapshot.
  EXPECT_GT(sink.checkpoints_written(), 20u);
  std::remove(path.c_str());
}

namespace {

/// The overwrite-and-count contract of one recorder partition: sealed ==
/// dropped + surviving, surviving samples newest and consecutively numbered,
/// access ranges ordered, and every sample's cells summing to its bytes.
void expect_ring_invariants(const cc::EpochTimeline& t) {
  ASSERT_FALSE(t.epochs.empty());
  EXPECT_EQ(t.sealed, t.dropped + t.epochs.size());
  EXPECT_EQ(t.epochs.back().index + 1, t.sealed);
  for (std::size_t i = 1; i < t.epochs.size(); ++i) {
    EXPECT_EQ(t.epochs[i].index, t.epochs[i - 1].index + 1);
    EXPECT_GE(t.epochs[i].first_access, t.epochs[i - 1].last_access);
  }
  for (const cc::EpochSample& e : t.epochs) {
    EXPECT_LE(e.first_access, e.last_access);
    std::uint64_t cell_sum = 0;
    for (const cc::EpochCell& c : e.cells) cell_sum += c.bytes;
    EXPECT_EQ(cell_sum, e.bytes) << "sample " << e.index;
  }
}

}  // namespace

// Recorder under thread churn: waves of real threads hammer the profiler
// (cross-thread RAW traffic included) with an aggressive seal trigger,
// with every thread replaced between waves. Whatever the interleaving, both
// partitions keep the overwrite-and-count contract, and the phase windows
// (never dropped at this scale) sum to the final matrix. The tiny-ring
// cases force overwrites; the timer case runs long enough for concurrent
// timer polls to race seals. The never-overwriting cases check that the
// epochs sum to the final matrix and the final dependency count exactly,
// because each seal differences the region tree against the previous cut
// while other lanes keep adding; one of them does so over spinlocked
// sparse region matrices. The last case seals at a phase volume whose
// stride is at its cap, while an extra thread forces checkpoint seals in a
// loop, so tree walks race the lanes' adds and their volume seals. Its
// lanes also read the stripe their neighbour wrote in the previous wave,
// which are dependencies on any schedule (even one CPU), so it seals
// several windows.
TEST(FlushOrdering, EpochRingInvariantsHoldUnderThreadChurn) {
  constexpr int kLanes = 4;
  // 2 waves x 4 lanes x 8192 reads x 8 B = 8 windows of 64 KiB.
  constexpr int kStripe = 8192;
  constexpr std::uint32_t kTinyRing = 4;
  const struct {
    std::uint64_t every_accesses;
    std::uint32_t every_millis;
    std::uint64_t phase_bytes;
    int per_lane;
    bool flusher;  ///< also stripe traffic and a checkpoint-flush thread
    std::uint32_t ring;
    bool sparse;   ///< sparse (spinlocked) region matrices
  } cases[] = {
      {64, 0, 0, 400, false, kTinyRing, false},
      {0, 1, 0, 20000, false, kTinyRing, false},
      {64, 0, 256, 400, false, kTinyRing, false},
      {64, 0, 256, 400, false, cc::kMaxEpochRing, false},
      {64, 0, 256, 400, false, cc::kMaxEpochRing, true},
      {100000, 0, 65536, 20000, true, kTinyRing, false},
  };
  for (const auto& k : cases) {
    SCOPED_TRACE("every_accesses=" + std::to_string(k.every_accesses) +
                 " every_millis=" + std::to_string(k.every_millis) +
                 " phase_bytes=" + std::to_string(k.phase_bytes) +
                 " flusher=" + std::to_string(k.flusher) +
                 " ring=" + std::to_string(k.ring) +
                 " sparse=" + std::to_string(k.sparse));
    cc::ProfilerOptions po = batched_profiler_options();
    po.epoch_accesses = k.every_accesses;
    po.epoch_millis = k.every_millis;
    po.phase_window_bytes = k.phase_bytes;
    po.epoch_ring = k.ring;
    po.sparse_region_matrices = k.sparse;
    cc::Profiler prof(po);
    std::atomic<bool> lanes_done{false};
    std::thread flusher;
    if (k.flusher) {
      flusher = std::thread([&prof, &lanes_done] {
        while (!lanes_done.load(std::memory_order_relaxed)) {
          prof.recorder().flush(cc::EpochSeal::kCheckpoint);
          std::this_thread::yield();
        }
      });
    }
    for (int wave = 0; wave < 3; ++wave) {  // churn: fresh threads each wave
      std::vector<std::thread> lanes;
      for (int t = 0; t < kLanes; ++t) {
        lanes.emplace_back([&prof, t, wave, n = k.per_lane,
                            stripe = k.flusher ? kStripe : 0] {
          prof.on_thread_begin(t);
          const auto stripe_addr = [stripe](int w, int lane, int i) {
            return 0x100000u +
                   8u * static_cast<unsigned>((w * kLanes + lane) * stripe + i);
          };
          for (int i = 0; i < n; ++i) {
            const auto addr = 0x9000u + 8u * static_cast<unsigned>(i % 32);
            prof.on_access(t, addr, 8,
                           (i + t + wave) % 3 == 0 ? ci::AccessKind::kWrite
                                                   : ci::AccessKind::kRead);
            if (i < stripe) {
              if (wave > 0) {
                prof.on_access(t, stripe_addr(wave - 1, (t + 1) % kLanes, i),
                               8, ci::AccessKind::kRead);
              }
              prof.on_access(t, stripe_addr(wave, t, i), 8,
                             ci::AccessKind::kWrite);
            }
          }
          prof.on_drain(t);
        });
      }
      for (std::thread& th : lanes) th.join();
    }
    lanes_done.store(true, std::memory_order_relaxed);
    if (flusher.joinable()) flusher.join();
    prof.finalize();

    const cc::EpochTimeline t = prof.epoch_timeline();
    expect_ring_invariants(t);
    EXPECT_LE(t.epochs.size(), k.ring);
    if (k.ring == kTinyRing && k.every_accesses != 0) {
      EXPECT_GT(t.dropped, 0u) << "ring never overwrote; trigger too lax";
    }
    if (k.ring != kTinyRing) {
      ASSERT_EQ(t.dropped, 0u);
      EXPECT_GT(t.epochs.size(), 1u);
      const cc::ProfileStats stats = prof.stats();
      EXPECT_GT(stats.dependencies, 0u);
      std::uint64_t deps = 0;
      for (const cc::EpochSample& e : t.epochs) deps += e.dependencies;
      EXPECT_EQ(deps, stats.dependencies)
          << "epoch dependencies do not sum to the final count";
      EXPECT_TRUE(t.total() == prof.communication_matrix())
          << "epochs do not sum to the final matrix";
    }
    if (k.phase_bytes != 0) {
      const cc::EpochTimeline phases = prof.recorder().phase_windows();
      expect_ring_invariants(phases);
      EXPECT_GT(phases.epochs.size(), k.flusher ? 3u : 1u);
      EXPECT_EQ(phases.dropped, 0u);
      EXPECT_TRUE(phases.total() == prof.communication_matrix())
          << "phase windows do not sum to the final matrix";
    }
  }
}

// Every trace record since enable() either occupies a ring slot, overwrote
// one (counted in dropped), or spilled past the ring table (also counted).
// Thread churn is the hostile case: each fresh OS thread claims a fresh
// ring, so waves of short-lived threads spread the same event count across
// many rings without ever breaking the accounting identity.
TEST(TraceRing, OverwriteAndCountInvariantsHoldUnderThreadChurn) {
  ctl::Tracer::enable();
  constexpr int kWaves = 3;
  constexpr int kLanes = 6;
  constexpr int kPerThread = 3000;  // > ring capacity: forces overwrites
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> lanes;
    for (int t = 0; t < kLanes; ++t) {
      lanes.emplace_back([t] {
        for (int i = 0; i < kPerThread; ++i) {
          ctl::Tracer::instant("churn", ctl::SpanCat::kRun, t);
        }
      });
    }
    for (std::thread& th : lanes) th.join();
  }
  ctl::Tracer::disable();

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kWaves) * kLanes * kPerThread;
  const std::uint64_t captured = ctl::Tracer::captured();
  const std::uint64_t dropped = ctl::Tracer::dropped();
  EXPECT_EQ(captured + dropped, kTotal)
      << "a record was neither kept, overwritten nor counted as spilled";
  EXPECT_GT(dropped, 0u) << "churn never overflowed a ring; load too light";
  // Each of the kWaves * kLanes short-lived threads burned its own ring.
  EXPECT_LE(captured,
            static_cast<std::uint64_t>(kWaves) * kLanes * 2048u);
}

// The reap path runs on the daemon thread while churning client threads
// hammer the same trace rings: the daemon must reap the silent session
// without losing its merged contribution, and the ring accounting must
// survive the concurrent load.
TEST(TraceRing, ServeSessionReapUnderChurnKeepsDaemonConsistent) {
  ctl::Tracer::enable();
  const std::string socket =
      "/tmp/cs_stress_reap_" + std::to_string(::getpid()) + ".sock";
  sv::ServeOptions o;
  o.socket_path = socket;
  o.poll_ms = 5;
  o.reap_ms = 40;
  sv::ServeServer server(o);
  ASSERT_TRUE(server.open());
  std::thread daemon([&server] { server.run(); });

  std::atomic<bool> stop{false};
  std::vector<std::thread> churn;
  for (int t = 0; t < 4; ++t) {
    churn.emplace_back([&stop, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        ctl::Tracer::instant("churn.reap", ctl::SpanCat::kRun, t);
      }
    });
  }

  // One client ships a single epoch and goes silent: no bye, no heartbeat.
  cc::EpochTimeline truth;
  truth.threads = 2;
  truth.sealed = 1;
  cc::EpochSample e;
  e.index = 0;
  e.first_access = 0;
  e.last_access = 9;
  cc::EpochCell cell;
  cell.producer = 0;
  cell.consumer = 1;
  cell.bytes = 64;
  e.bytes = 64;
  e.cells.push_back(cell);
  e.dependencies = 1;
  truth.epochs.push_back(e);
  sv::ShipperOptions so;
  so.socket_path = socket;
  so.spill_path = socket + ".spill.epochs";
  so.session_id = 17;
  so.threads = 2;
  {
    sv::EpochShipper s(so);
    ASSERT_TRUE(s.ship(truth));
  }  // destroyed without bye(): the heartbeat timeout must reap it

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.snapshot().sessions_reaped == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : churn) th.join();
  server.stop();
  daemon.join();
  ctl::Tracer::disable();

  const sv::ServeStats st = server.snapshot();
  EXPECT_GE(st.sessions_reaped, 1u) << "silent session was never reaped";
  EXPECT_EQ(st.epochs_merged, 1u) << "reap lost the merged contribution";
  EXPECT_LE(ctl::Tracer::captured(), 80u * 2048u);
  EXPECT_GT(ctl::Tracer::dropped(), 0u)
      << "churn spun for the whole reap window yet never wrapped a ring";
  std::remove(so.spill_path.c_str());
}

// A batch lives with its tid, not its OS thread: a thread that exits with
// accesses buffered leaves them for the tid's next thread, whose
// on_thread_begin drains them before it resets the region stack.
TEST(FlushOrdering, ExitedThreadsBatchDrainsAtTheTidsNextBegin) {
  cc::Profiler prof(batched_profiler_options());
  cr::GuardedSink sink(prof, nullptr, {});
  const auto drive = [&](std::uintptr_t base) {
    sink.on_thread_begin(2);
    for (int i = 0; i < 3; ++i) {
      sink.on_access(2, base + 8u * static_cast<unsigned>(i), 8,
                     ci::AccessKind::kWrite);
    }
  };
  std::thread first([&] { drive(0x8000); });
  first.join();
  EXPECT_EQ(prof.pending_events(2), 3u);
  EXPECT_EQ(prof.stats().accesses, 0u);
  std::thread second([&] {
    drive(0x9000);
    EXPECT_EQ(prof.stats().accesses, 3u);  // the first thread's, drained
  });
  second.join();
  EXPECT_EQ(prof.pending_events(2), 3u);
  sink.finalize();
  EXPECT_EQ(prof.pending_events(2), 0u);
  EXPECT_EQ(prof.stats().accesses, 6u);
}
