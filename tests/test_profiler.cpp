// End-to-end profiler tests: Algorithm 1 + region attribution + metrics via
// the public AccessSink interface, for both backends.
#include <gtest/gtest.h>

#include <thread>

#include "core/phase.hpp"
#include "core/profiler.hpp"
#include "core/thread_load.hpp"
#include "instrument/loop_scope.hpp"

namespace cc = commscope::core;
namespace ci = commscope::instrument;

namespace {

cc::ProfilerOptions small_options(cc::Backend backend) {
  cc::ProfilerOptions o;
  o.max_threads = 8;
  o.signature_slots = 1 << 16;
  o.fp_rate = 1e-6;
  o.backend = backend;
  return o;
}

void write_word(cc::Profiler& p, int tid, std::uintptr_t addr) {
  p.on_access(tid, addr, 8, ci::AccessKind::kWrite);
}

bool read_word(cc::Profiler& p, int tid, std::uintptr_t addr) {
  const auto before = p.stats().dependencies;
  p.on_access(tid, addr, 8, ci::AccessKind::kRead);
  return p.stats().dependencies > before;
}

}  // namespace

class ProfilerBackends : public ::testing::TestWithParam<cc::Backend> {};

TEST_P(ProfilerBackends, RecordsProducerConsumerBytes) {
  cc::Profiler prof(small_options(GetParam()));
  prof.on_thread_begin(0);
  prof.on_thread_begin(1);
  write_word(prof, 0, 0x1000);
  EXPECT_TRUE(read_word(prof, 1, 0x1000));
  const cc::Matrix m = prof.communication_matrix();
  EXPECT_EQ(m.at(0, 1), 8u);
  EXPECT_EQ(m.total(), 8u);
}

TEST_P(ProfilerBackends, FirstTouchSuppressionAndSelfReads) {
  cc::Profiler prof(small_options(GetParam()));
  prof.on_thread_begin(0);
  prof.on_thread_begin(1);
  write_word(prof, 0, 0x2000);
  EXPECT_FALSE(read_word(prof, 0, 0x2000));  // self
  EXPECT_TRUE(read_word(prof, 1, 0x2000));
  EXPECT_FALSE(read_word(prof, 1, 0x2000));  // repeated
  EXPECT_EQ(prof.communication_matrix().at(0, 1), 8u);
}

TEST_P(ProfilerBackends, AttributesToInnermostRegion) {
  cc::Profiler prof(small_options(GetParam()));
  auto& reg = ci::LoopRegistry::instance();
  const ci::LoopId outer = reg.declare("t", "outer");
  const ci::LoopId inner = reg.declare("t", "inner");

  prof.on_thread_begin(0);
  prof.on_thread_begin(1);
  write_word(prof, 0, 0x3000);
  write_word(prof, 0, 0x3008);

  prof.on_loop_enter(1, outer);
  EXPECT_TRUE(read_word(prof, 1, 0x3000));  // attributed to outer
  prof.on_loop_enter(1, inner);
  EXPECT_TRUE(read_word(prof, 1, 0x3008));  // attributed to outer/inner
  prof.on_loop_exit(1);
  prof.on_loop_exit(1);

  const auto& root = prof.regions().root();
  EXPECT_EQ(root.direct().total(), 0u);  // nothing directly at root
  ASSERT_EQ(root.children().size(), 1u);
  const cc::RegionNode* outer_node = root.children()[0];
  EXPECT_EQ(outer_node->direct().total(), 8u);
  ASSERT_EQ(outer_node->children().size(), 1u);
  EXPECT_EQ(outer_node->children()[0]->direct().total(), 8u);
  EXPECT_EQ(outer_node->aggregate().total(), 16u);
  EXPECT_EQ(prof.communication_matrix().total(), 16u);
}

TEST_P(ProfilerBackends, StatsCountEverything) {
  cc::Profiler prof(small_options(GetParam()));
  prof.on_thread_begin(0);
  prof.on_thread_begin(1);
  write_word(prof, 0, 0x4000);
  read_word(prof, 1, 0x4000);
  read_word(prof, 1, 0x4000);
  const cc::ProfileStats s = prof.stats();
  EXPECT_EQ(s.accesses, 3u);
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.reads, 2u);
  EXPECT_EQ(s.dependencies, 1u);
}

TEST_P(ProfilerBackends, ConcurrentProducersConsumersAreCaptured) {
  cc::Profiler prof(small_options(GetParam()));
  constexpr int kWords = 512;
  std::vector<std::uintptr_t> addrs(kWords);
  for (int i = 0; i < kWords; ++i) {
    addrs[static_cast<std::size_t>(i)] = 0x100000 + static_cast<std::uintptr_t>(i) * 8;
  }
  prof.on_thread_begin(0);
  prof.on_thread_begin(1);
  prof.on_thread_begin(2);
  for (int i = 0; i < kWords; ++i) write_word(prof, 0, addrs[static_cast<std::size_t>(i)]);
  std::thread c1([&] {
    for (int i = 0; i < kWords; ++i) {
      prof.on_access(1, addrs[static_cast<std::size_t>(i)], 8, ci::AccessKind::kRead);
    }
  });
  std::thread c2([&] {
    for (int i = 0; i < kWords; ++i) {
      prof.on_access(2, addrs[static_cast<std::size_t>(i)], 8, ci::AccessKind::kRead);
    }
  });
  c1.join();
  c2.join();
  // The exact backend captures every word; the signature backend may drop a
  // handful to designed-in slot collisions, never overcount beyond them.
  const cc::Matrix m = prof.communication_matrix();
  const auto full = static_cast<std::uint64_t>(kWords) * 8;
  EXPECT_GE(m.at(0, 1), full * 9 / 10);
  EXPECT_LE(m.at(0, 1), full + full / 10);
  EXPECT_GE(m.at(0, 2), full * 9 / 10);
  if (GetParam() == cc::Backend::kExact) {
    EXPECT_EQ(m.at(0, 1), full);
    EXPECT_EQ(m.at(0, 2), full);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ProfilerBackends,
                         ::testing::Values(cc::Backend::kAsymmetricSignature,
                                           cc::Backend::kExact));

TEST(Profiler, SignatureMemoryIsBoundedExactIsNot) {
  cc::ProfilerOptions sig_opt = small_options(cc::Backend::kAsymmetricSignature);
  sig_opt.signature_slots = 2048;
  cc::Profiler sig(sig_opt);
  cc::Profiler exact(small_options(cc::Backend::kExact));
  sig.on_thread_begin(0);
  exact.on_thread_begin(0);

  std::uint64_t sig_peak_small = 0;
  for (std::uintptr_t a = 0; a < 200000; ++a) {
    const std::uintptr_t addr = 0x200000 + a * 8;
    sig.on_access(0, addr, 8, ci::AccessKind::kWrite);
    exact.on_access(0, addr, 8, ci::AccessKind::kWrite);
    if (a == 1000) sig_peak_small = sig.memory_bytes();
  }
  // Signature footprint saturates (bounded by slot count)...
  EXPECT_LE(sig.memory_bytes(), sig_peak_small * 3);
  // ...while the exact backend keeps growing with distinct addresses.
  EXPECT_GT(exact.memory_bytes(), sig.memory_bytes());
}

TEST(Profiler, PhaseTimelineCapturesTransition) {
  cc::ProfilerOptions o = small_options(cc::Backend::kExact);
  o.phase_window_bytes = 256;
  cc::Profiler prof(o);
  prof.on_thread_begin(0);
  prof.on_thread_begin(1);
  prof.on_thread_begin(2);
  // Phase A: 0 -> 1 traffic; phase B: 0 -> 2 traffic.
  for (int i = 0; i < 100; ++i) {
    const std::uintptr_t addr = 0x300000 + static_cast<std::uintptr_t>(i) * 8;
    prof.on_access(0, addr, 8, ci::AccessKind::kWrite);
    prof.on_access(1, addr, 8, ci::AccessKind::kRead);
  }
  for (int i = 0; i < 100; ++i) {
    const std::uintptr_t addr = 0x400000 + static_cast<std::uintptr_t>(i) * 8;
    prof.on_access(0, addr, 8, ci::AccessKind::kWrite);
    prof.on_access(2, addr, 8, ci::AccessKind::kRead);
  }
  prof.finalize();
  const std::vector<cc::Matrix> windows = prof.phase_timeline();
  ASSERT_GE(windows.size(), 2u);
  const std::vector<cc::Phase> phases = cc::detect_phases(windows, 0.8);
  EXPECT_EQ(phases.size(), 2u);
}

TEST(Profiler, ThreadLoadMatchesEquationOne) {
  cc::Profiler prof(small_options(cc::Backend::kExact));
  prof.on_thread_begin(0);
  prof.on_thread_begin(1);
  for (int i = 0; i < 10; ++i) {
    const std::uintptr_t addr = 0x500000 + static_cast<std::uintptr_t>(i) * 8;
    write_word(prof, 0, addr);
    read_word(prof, 1, addr);
  }
  const cc::Matrix m = prof.communication_matrix();
  const std::vector<double> load = cc::thread_load(m);
  // threadLoad_0 = row_sum(0) / threads_count = 80 / 8.
  EXPECT_DOUBLE_EQ(load[0], 10.0);
  EXPECT_DOUBLE_EQ(load[1], 0.0);
}

TEST(Profiler, RejectsBadThreadCounts) {
  // Validated before any member is built: 1 << 20 threads would otherwise
  // map a read signature of terabytes and fail with std::bad_alloc first.
  cc::ProfilerOptions o;
  for (const int threads : {0, -1, 65, 1 << 20}) {
    o.max_threads = threads;
    EXPECT_THROW(cc::Profiler{o}, std::invalid_argument) << threads;
  }
}

TEST(Profiler, LoopExitAtRootIsSafe) {
  cc::Profiler prof(small_options(cc::Backend::kExact));
  prof.on_thread_begin(0);
  prof.on_loop_exit(0);  // unmatched exit must not underflow
  write_word(prof, 0, 0x6000);
  SUCCEED();
}

// --- dependence classification extension (full DiscoPoP dependence set) ----

TEST(DependenceClassification, ExactBackendCountsAllKinds) {
  cc::ProfilerOptions o = small_options(cc::Backend::kExact);
  o.classify_dependences = true;
  cc::Profiler prof(o);
  prof.on_thread_begin(0);
  prof.on_thread_begin(1);
  prof.on_thread_begin(2);

  // RAW: 0 writes, 1 reads.
  write_word(prof, 0, 0x7000);
  read_word(prof, 1, 0x7000);
  // RAR: 2 reads what 1 already read.
  read_word(prof, 2, 0x7000);
  // WAR: 2 writes over 1's (and 2's) reads; also WAW over 0's write.
  write_word(prof, 2, 0x7000);
  // WAW only: immediate overwrite by another thread, no reads between.
  write_word(prof, 0, 0x7000);

  const cc::DependenceCounts d = prof.dependence_counts();
  EXPECT_EQ(d.raw, 2u);  // 1 and 2 each consumed 0's write
  EXPECT_EQ(d.rar, 1u);  // thread 2's read saw thread 1's
  EXPECT_EQ(d.war, 1u);  // thread 2's write over foreign reads
  EXPECT_EQ(d.waw, 2u);  // 2-over-0 and 0-over-2
}

TEST(DependenceClassification, SelfAccessesAreNotDependences) {
  cc::ProfilerOptions o = small_options(cc::Backend::kExact);
  o.classify_dependences = true;
  cc::Profiler prof(o);
  prof.on_thread_begin(0);
  write_word(prof, 0, 0x7100);
  read_word(prof, 0, 0x7100);
  read_word(prof, 0, 0x7100);
  write_word(prof, 0, 0x7100);
  const cc::DependenceCounts d = prof.dependence_counts();
  EXPECT_EQ(d.raw, 0u);
  EXPECT_EQ(d.rar, 0u);
  EXPECT_EQ(d.war, 0u);
  EXPECT_EQ(d.waw, 0u);
}

TEST(DependenceClassification, OffByDefaultCostsNothing) {
  cc::Profiler prof(small_options(cc::Backend::kExact));
  prof.on_thread_begin(0);
  prof.on_thread_begin(1);
  write_word(prof, 0, 0x7200);
  write_word(prof, 1, 0x7200);  // would be WAW if classification were on
  const cc::DependenceCounts d = prof.dependence_counts();
  EXPECT_EQ(d.waw, 0u);
}

TEST(DependenceClassification, SignatureBackendApproximatesSameCensus) {
  // The approximate (bloom-based) classification must agree with the exact
  // census on a collision-free workload, modulo the documented WAR
  // overcount direction (own-read WARs are included by the approximation).
  cc::ProfilerOptions sig_opt = small_options(cc::Backend::kAsymmetricSignature);
  sig_opt.classify_dependences = true;
  sig_opt.signature_slots = 1 << 20;
  sig_opt.fp_rate = 1e-9;
  cc::ProfilerOptions exact_opt = small_options(cc::Backend::kExact);
  exact_opt.classify_dependences = true;
  cc::Profiler sig(sig_opt);
  cc::Profiler exact(exact_opt);

  std::uint64_t state = 31;
  for (cc::Profiler* p : {&sig, &exact}) {
    for (int t = 0; t < 4; ++t) p->on_thread_begin(t);
  }
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uintptr_t addr = 0x80000 + (state >> 33) % 128 * 8;
    const int tid = static_cast<int>((state >> 20) % 4);
    const auto kind = ((state >> 10) & 3) == 0 ? ci::AccessKind::kWrite
                                               : ci::AccessKind::kRead;
    sig.on_access(tid, addr, 8, kind);
    exact.on_access(tid, addr, 8, kind);
  }
  const cc::DependenceCounts ds = sig.dependence_counts();
  const cc::DependenceCounts de = exact.dependence_counts();
  EXPECT_EQ(ds.raw, de.raw);
  EXPECT_EQ(ds.waw, de.waw);
  EXPECT_GE(ds.war, de.war);              // documented overcount direction
  EXPECT_LE(ds.war, de.war + de.raw + 64);  // bounded by own-read WARs
  EXPECT_GT(de.rar, 0u);
}

// --- invalid-tid graceful degradation ---------------------------------------

TEST(Profiler, DropsEventsFromUnregisteredAndOverflowTids) {
  for (const auto backend :
       {cc::Backend::kExact, cc::Backend::kAsymmetricSignature}) {
    cc::Profiler p(small_options(backend));
    // A thread that never got a registry slot carries tid -1
    // (ThreadRegistry::kUnregistered); one past the table carries
    // tid >= max_threads. Both must degrade to counted drops, not index
    // out-of-bounds thread contexts.
    p.on_thread_begin(-1);
    p.on_loop_enter(-1, 7);
    p.on_access(-1, 0x1000, 8, ci::AccessKind::kWrite);
    p.on_loop_exit(-1);
    p.on_access(99, 0x1000, 8, ci::AccessKind::kRead);
    p.on_access(8, 0x1008, 8, ci::AccessKind::kWrite);  // == max_threads
    EXPECT_EQ(p.dropped_events(), 6u);
    EXPECT_EQ(p.stats().accesses, 0u);
    EXPECT_EQ(p.communication_matrix().total(), 0u);

    // Valid tids keep working after the drops.
    p.on_thread_begin(0);
    p.on_thread_begin(1);
    p.on_access(0, 0x2000, 8, ci::AccessKind::kWrite);
    p.on_access(1, 0x2000, 8, ci::AccessKind::kRead);
    EXPECT_EQ(p.stats().dependencies, 1u);
  }
}

TEST(Profiler, DroppedEventsSurfaceInReportProvenance) {
  cc::Profiler p(small_options(cc::Backend::kExact));
  p.on_access(-1, 0x1000, 8, ci::AccessKind::kWrite);
  ASSERT_GT(p.dropped_events(), 0u);
}
