// Schedule-fuzzing stress harness tests: the differential self-verification
// contract (guarded pipeline == serial shadow oracle, cell-for-cell), seeded
// determinism, thread churn through the registry, and mirrored sampling.
// Scenario sizes are kept small — this suite doubles as the `ctest -L
// stress` tier-1 smoke and must stay fast on a single-core runner; the CLI
// (`commscope stress`) runs the full acceptance grid.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/profiler.hpp"
#include "resilience/guarded_sink.hpp"
#include "resilience/stress.hpp"
#include "serve/server.hpp"
#include "serve/shipper.hpp"
#include "threading/registry.hpp"
#include "telemetry/trace.hpp"

namespace cc = commscope::core;
namespace ci = commscope::instrument;
namespace cr = commscope::resilience;
namespace ct = commscope::threading;
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
  const int leases_before = ct::ThreadRegistry::registered_count();
  const cr::StressReport r = cr::run_stress(small_options(cr::StressMode::kLockstep));
  EXPECT_TRUE(r.passed);
  EXPECT_EQ(r.divergent_cells, 0u);
  EXPECT_TRUE(r.deterministic);
  EXPECT_GT(r.accesses, 0u);
  EXPECT_GT(r.churns, 0u);  // thread exit/respawn really happened
  EXPECT_EQ(r.guarded_total, r.oracle_total);
  EXPECT_EQ(r.reentrant_drops, 0u);
  // Every lane plus every churn replacement took a registry lease (twice:
  // the determinism re-run), and all of them were reclaimed.
  EXPECT_GT(ct::ThreadRegistry::registered_count(), leases_before);
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
// those buffers first. Each test pins one edge: explicit flush (the same
// path the atexit/fork/signal-time hooks take), periodic checkpoints, the
// registry flush hooks themselves, and thread exit.

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
  // Maintenance fires inside the 8th event's prologue, BEFORE that event
  // reaches the profiler: the checkpoint covers the 7 already-admitted
  // accesses and the 8th lands in the (now empty) batch afterwards.
  EXPECT_EQ(prof.stats().accesses, 7u);
  EXPECT_EQ(prof.pending_events(0), 1u);
}

TEST(FlushOrdering, RegistryFlushHooksDrainActiveSink) {
  cc::Profiler prof(batched_profiler_options());
  cr::GuardedSink::Options so;
  so.checkpoint_every = 1 << 20;
  cr::GuardedSink sink(prof, nullptr, so);
  sink.on_thread_begin(0);
  sink.on_access(0, 0x7000, 8, ci::AccessKind::kWrite);
  EXPECT_EQ(prof.pending_events(0), 1u);
  // The registered flush hooks are exactly what atexit and pthread_atfork
  // run; invoking them directly proves buffered state reaches the sink even
  // when the process exits or forks mid-phase.
  ct::ThreadRegistry::run_flush_hooks();
  EXPECT_EQ(prof.pending_events(0), 0u);
  EXPECT_EQ(prof.stats().accesses, 1u);
}

// Coarse mode (a memory budget alone: no checkpoint, injector or event
// budget) keeps no event index, yet flush() — what the registry's atexit and
// fork hooks run — must still park its appenders before draining their
// micro-batches. A lane left running would append to the batch flush_all()
// is draining, and the drain would lose or double-count accesses.
TEST(FlushOrdering, CoarseModeFlushParksAppenders) {
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
          (void)ct::ThreadRegistry::current_tid();
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

TEST(FlushOrdering, ThreadExitDrainsOwnMicroBatch) {
  cc::Profiler prof(batched_profiler_options());
  cr::GuardedSink sink(prof, nullptr, {});
  std::thread worker([&] {
    // Lease a registry slot so the thread-exit hook runs for this thread.
    (void)ct::ThreadRegistry::current_tid();
    sink.on_thread_begin(2);
    for (int i = 0; i < 3; ++i) {
      sink.on_access(2, 0x8000u + 8u * static_cast<unsigned>(i), 8,
                     ci::AccessKind::kWrite);
    }
    EXPECT_EQ(prof.pending_events(2), 3u);
  });
  worker.join();
  // The exiting thread drained its own batch (logical tid 2) on the way out.
  EXPECT_EQ(prof.pending_events(2), 0u);
  EXPECT_EQ(prof.stats().accesses, 3u);
}
