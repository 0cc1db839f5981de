// Resilience subsystem tests: memory-tracker guardrails, the graceful-
// degradation ladder, crash-safe checkpoints, and deterministic fault
// injection. The end-to-end signal/watchdog paths are exercised through the
// CLI in test_cli.cpp; these tests drive the same machinery in-process with
// KillMode::kThrow so a "crash" is a catchable exception.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/profiler.hpp"
#include "core/report.hpp"
#include "instrument/loop_registry.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/guarded_sink.hpp"
#include "resilience/resource_guard.hpp"
#include "sigmem/exact_signature.hpp"
#include "support/atomic_file.hpp"
#include "support/memtrack.hpp"
#include "telemetry/metrics.hpp"
#include "threading/reentrancy.hpp"

namespace cc = commscope::core;
namespace ci = commscope::instrument;
namespace cr = commscope::resilience;
namespace cs = commscope::support;

namespace {

/// Emits `writes` distinct addresses written by t0 then read by t1 — every
/// address becomes tracked detector state and one RAW dependency.
void drive_pairs(ci::AccessSink& sink, int n, std::uintptr_t base = 0x1000) {
  sink.on_thread_begin(0);
  sink.on_thread_begin(1);
  for (int i = 0; i < n; ++i) {
    const std::uintptr_t addr = base + static_cast<std::uintptr_t>(i) * 8;
    sink.on_access(0, addr, 8, ci::AccessKind::kWrite);
    sink.on_access(1, addr, 8, ci::AccessKind::kRead);
  }
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

}  // namespace

// --- MemoryTracker guardrails ----------------------------------------------

TEST(MemoryTracker, SubClampsAtZeroAndCountsUnderflows) {
  cs::MemoryTracker t;
  t.add(100);
  t.sub(250);
  EXPECT_EQ(t.current(), 0u);
  EXPECT_EQ(t.underflows(), 1u);
  EXPECT_FALSE(t.balanced());
}

TEST(MemoryTracker, BalancedWhenEveryAddMatched) {
  cs::MemoryTracker t;
  t.add(64);
  t.add(32);
  t.sub(32);
  EXPECT_FALSE(t.balanced());
  t.sub(64);
  EXPECT_TRUE(t.balanced());
}

TEST(MemoryTracker, SignatureAndTreeReleaseEverythingAtTeardown) {
  cs::MemoryTracker t;
  {
    commscope::sigmem::ExactSignature sig(8, &t);
    sig.on_write(0x1000, 0);
    sig.on_write(0x2000, 1);
    (void)sig.on_read(0x1000, 2);
    EXPECT_GT(t.current(), 0u);
  }
  EXPECT_TRUE(t.balanced()) << "exact signature leaked tracked bytes";
  {
    cc::RegionTree tree(4, &t);
    const ci::LoopId id =
        ci::LoopRegistry::instance().declare("test_resilience", "teardown");
    tree.root().child(id)->matrix().add(0, 1, 8);
    EXPECT_GT(t.current(), 0u);
  }
  EXPECT_TRUE(t.balanced()) << "region tree leaked tracked bytes";
}

// --- FaultInjector ----------------------------------------------------------

TEST(FaultInjector, ParsesFullSpec) {
  const cr::FaultPlan p = cr::FaultInjector::parse_plan(
      "alloc:3;kill-at-event:500;sleep-at-event:10;sleep-ms:250;"
      "write-truncate:64;write-corrupt:12;seed:99");
  EXPECT_EQ(p.fail_alloc_at, 3u);
  EXPECT_EQ(p.kill_at_event, 500u);
  EXPECT_EQ(p.sleep_at_event, 10u);
  EXPECT_EQ(p.sleep_ms, 250u);
  EXPECT_EQ(p.truncate_write_at, 64u);
  EXPECT_EQ(p.corrupt_write_at, 12u);
  EXPECT_EQ(p.seed, 99u);
  EXPECT_TRUE(p.any());
}

TEST(FaultInjector, RejectsMalformedSpecs) {
  EXPECT_THROW((void)cr::FaultInjector::parse_plan("frob:1"),
               std::invalid_argument);
  EXPECT_THROW((void)cr::FaultInjector::parse_plan("alloc"),
               std::invalid_argument);
  EXPECT_THROW((void)cr::FaultInjector::parse_plan("alloc:banana"),
               std::invalid_argument);
}

TEST(FaultInjector, FailsExactlyTheNthTrackedAllocation) {
  cr::FaultPlan plan;
  plan.fail_alloc_at = 3;
  cr::FaultInjector inj(plan, cr::KillMode::kThrow);
  cs::MemoryTracker t;
  t.set_observer(&inj);
  t.add(8);
  t.add(8);
  EXPECT_FALSE(inj.alloc_failure_pending());
  t.add(8);
  EXPECT_TRUE(inj.alloc_failure_pending());
  EXPECT_TRUE(inj.consume_alloc_failure());
  EXPECT_FALSE(inj.consume_alloc_failure()) << "failure must fire once";
  EXPECT_EQ(inj.allocs_seen(), 3u);
  t.set_observer(nullptr);
}

TEST(FaultInjector, PayloadCorruptionIsDeterministic) {
  cr::FaultPlan plan;
  plan.corrupt_write_at = 10;
  plan.seed = 1234;
  const std::string original(64, 'x');
  std::string a = original;
  std::string b = original;
  cr::FaultInjector ia(plan, cr::KillMode::kThrow);
  cr::FaultInjector ib(plan, cr::KillMode::kThrow);
  EXPECT_TRUE(ia.mutate_payload(a));
  EXPECT_TRUE(ib.mutate_payload(b));
  EXPECT_EQ(a, b) << "same plan+seed must corrupt identically";
  EXPECT_NE(a, original);
  // Each injector fires its write fault at most once.
  std::string c = original;
  EXPECT_FALSE(ia.mutate_payload(c));
  EXPECT_EQ(c, original);
}

TEST(FaultInjector, TruncationCutsPayload) {
  cr::FaultPlan plan;
  plan.truncate_write_at = 16;
  cr::FaultInjector inj(plan, cr::KillMode::kThrow);
  std::string payload(100, 'y');
  EXPECT_TRUE(inj.mutate_payload(payload));
  EXPECT_EQ(payload.size(), 16u);
}

// --- degradation ladder -----------------------------------------------------

TEST(Degradation, ExactBackendDegradesToSignatureAndKeepsState) {
  cc::ProfilerOptions o;
  o.max_threads = 4;
  o.backend = cc::Backend::kExact;
  o.signature_slots = 1 << 14;
  cc::Profiler prof(o);
  drive_pairs(prof, 50);
  const std::uint64_t deps_before = prof.stats().dependencies;
  EXPECT_EQ(deps_before, 50u);

  ASSERT_TRUE(prof.degrade_exact_to_signature(123, "test"));
  EXPECT_EQ(prof.options().backend, cc::Backend::kAsymmetricSignature);
  ASSERT_EQ(prof.degradations().size(), 1u);
  EXPECT_EQ(prof.degradations()[0].event_index, 123u);
  // The migration replays tracked state but discards producers — already-
  // counted dependencies must not be counted again.
  EXPECT_EQ(prof.stats().dependencies, deps_before);

  // Migrated writer state still produces: a *new* read of an old address
  // from a third thread detects t0 as producer.
  prof.on_thread_begin(2);
  prof.on_access(2, 0x1000, 8, ci::AccessKind::kRead);
  EXPECT_EQ(prof.stats().dependencies, deps_before + 1);

  // A second call is a no-op: the backend is already a signature.
  EXPECT_FALSE(prof.degrade_exact_to_signature(456, "test"));
}

TEST(Degradation, DenseRegionsConvertToSparsePreservingCells) {
  cc::ProfilerOptions o;
  o.max_threads = 4;
  o.backend = cc::Backend::kExact;
  cc::Profiler prof(o);
  const ci::LoopId id =
      ci::LoopRegistry::instance().declare("test_resilience", "sparse");
  prof.on_thread_begin(0);
  prof.on_thread_begin(1);
  prof.on_loop_enter(0, id);
  prof.on_loop_enter(1, id);
  drive_pairs(prof, 10, 0x9000);
  const cc::Matrix before = prof.communication_matrix();

  ASSERT_TRUE(prof.degrade_regions_to_sparse(7, "test"));
  EXPECT_TRUE(prof.options().sparse_region_matrices);
  EXPECT_EQ(prof.communication_matrix(), before)
      << "conversion must preserve every accumulated cell";
  EXPECT_FALSE(prof.degrade_regions_to_sparse(8, "test")) << "idempotent";
}

TEST(Degradation, HalvingSlotsStopsAtFloor) {
  cc::ProfilerOptions o;
  o.max_threads = 4;
  o.signature_slots = 1 << 13;  // 8192: one halving to the 4096 floor
  cc::Profiler prof(o);
  EXPECT_TRUE(prof.degrade_halve_slots(1, "test"));
  EXPECT_EQ(prof.options().signature_slots, 4096u);
  EXPECT_FALSE(prof.degrade_halve_slots(2, "test")) << "floor reached";
}

TEST(ResourceGuard, MemBudgetWalksLadderUntilExhaustedButRunSurvives) {
  cc::ProfilerOptions o;
  o.max_threads = 4;
  o.backend = cc::Backend::kExact;
  o.signature_slots = 1 << 13;
  cc::Profiler prof(o);
  drive_pairs(prof, 200);

  cr::GuardOptions g;
  g.mem_budget_bytes = 1;  // unsatisfiable: every rung must fire
  cr::ResourceGuard guard(g, prof);
  ASSERT_TRUE(guard.enabled());
  ASSERT_TRUE(guard.action_pending(100));
  guard.check(100);

  EXPECT_EQ(prof.options().backend, cc::Backend::kAsymmetricSignature);
  EXPECT_TRUE(prof.options().sparse_region_matrices);
  EXPECT_EQ(prof.options().signature_slots, 4096u);
  const auto& degs = prof.degradations();
  ASSERT_FALSE(degs.empty());
  EXPECT_NE(degs.back().action.find("ladder exhausted"), std::string::npos);
  // Further checks are quiet: nothing left to do, nothing new recorded.
  const std::size_t n = degs.size();
  guard.check(200);
  EXPECT_EQ(prof.degradations().size(), n);
}

TEST(ResourceGuard, EventBudgetSuppressesAccessesButKeepsStructure) {
  cc::ProfilerOptions o;
  o.max_threads = 4;
  cc::Profiler prof(o);
  cr::GuardOptions g;
  g.event_budget = 100;
  g.check_interval = 16;
  cr::ResourceGuard guard(g, prof);
  cr::GuardedSink sink(prof, &guard, {});
  drive_pairs(sink, 200);  // 400 access events
  EXPECT_TRUE(guard.suppress_accesses());
  EXPECT_GT(sink.suppressed(), 0u);
  EXPECT_LT(prof.stats().accesses, 400u);
  bool logged = false;
  for (const cc::DegradationEvent& d : prof.degradations()) {
    if (d.reason.find("event budget") != std::string::npos) logged = true;
  }
  EXPECT_TRUE(logged);
  // Loop-structure events still flow while accesses are suppressed.
  const ci::LoopId id =
      ci::LoopRegistry::instance().declare("test_resilience", "suppressed");
  sink.on_loop_enter(0, id);
  sink.on_loop_exit(0);
  EXPECT_EQ(prof.regions().root().children().empty(), false);
}

// Suppression counts per tid: every access a gated lane delivers is either
// profiled or counted as suppressed, at any number of lanes.
TEST(ResourceGuard, SuppressedPlusProfiledEqualsDeliveredAtFourLanes) {
  constexpr int kLanes = 4;
  constexpr int kPerLane = 20000;
  cc::ProfilerOptions o;
  o.max_threads = kLanes;
  o.batch_size = 64;
  cc::Profiler prof(o);
  cr::GuardOptions g;
  g.event_budget = 1000;
  g.check_interval = 64;
  cr::ResourceGuard guard(g, prof);
  cr::GuardedSink sink(prof, &guard, {});
  std::vector<std::thread> lanes;
  for (int t = 0; t < kLanes; ++t) {
    lanes.emplace_back([&sink, t] {
      sink.on_thread_begin(t);
      for (int i = 0; i < kPerLane; ++i) {
        sink.on_access(t, 0x10000u + 8u * static_cast<unsigned>(i % 512), 8,
                       i % 3 == 0 ? ci::AccessKind::kWrite
                                  : ci::AccessKind::kRead);
      }
    });
  }
  for (std::thread& l : lanes) l.join();
  sink.finalize();
  EXPECT_TRUE(guard.suppress_accesses());
  EXPECT_GT(sink.suppressed(), 0u);
  EXPECT_EQ(prof.stats().accesses + sink.suppressed(),
            static_cast<std::uint64_t>(kLanes) * kPerLane);
  EXPECT_EQ(commscope::telemetry::gauge("sink.suppressed").value(),
            sink.suppressed());
}

TEST(ResourceGuard, InjectedAllocationFailureTakesOneRung) {
  cc::ProfilerOptions o;
  o.max_threads = 4;
  o.backend = cc::Backend::kExact;
  cc::Profiler prof(o);
  cr::FaultPlan plan;
  plan.fail_alloc_at = 5;
  cr::FaultInjector inj(plan, cr::KillMode::kThrow);
  prof.memory().set_observer(&inj);
  cr::ResourceGuard guard({}, prof, &inj);
  ASSERT_TRUE(guard.enabled()) << "an injector alone enables the guard";

  drive_pairs(prof, 20);  // plenty of tracked allocations
  ASSERT_TRUE(guard.action_pending(40));
  guard.check(40);
  prof.memory().set_observer(nullptr);
  ASSERT_EQ(prof.degradations().size(), 1u);
  EXPECT_EQ(prof.degradations()[0].reason, "injected allocation failure");
  EXPECT_EQ(prof.options().backend, cc::Backend::kAsymmetricSignature);
}

// --- checkpoints ------------------------------------------------------------

TEST(Checkpoint, SerializeParseRoundTrip) {
  cc::ProfilerOptions o;
  o.max_threads = 4;
  cc::Profiler prof(o);
  const ci::LoopId id =
      ci::LoopRegistry::instance().declare("test_resilience", "round trip");
  prof.on_thread_begin(0);
  prof.on_thread_begin(1);
  prof.on_loop_enter(0, id);
  prof.on_loop_enter(1, id);
  drive_pairs(prof, 25, 0x40000);
  prof.record_degradation(cc::DegradationEvent{
      42, 1000, 500, "a reason with spaces", "an action with spaces"});

  cr::CheckpointMeta meta;
  meta.events = 77;
  meta.state = "partial";
  meta.reason = "periodic";
  const std::string text = serialize_checkpoint(prof, meta, prof.stats());
  const cr::Checkpoint ck = cr::parse_checkpoint_text(text);

  EXPECT_EQ(ck.threads, 4);
  EXPECT_EQ(ck.backend, "signature");
  EXPECT_EQ(ck.meta.events, 77u);
  EXPECT_EQ(ck.meta.state, "partial");
  EXPECT_EQ(ck.stats.dependencies, prof.stats().dependencies);
  ASSERT_EQ(ck.degradations.size(), 1u);
  EXPECT_EQ(ck.degradations[0].reason, "a reason with spaces");
  EXPECT_EQ(ck.degradations[0].action, "an action with spaces");
  ASSERT_GE(ck.regions.size(), 2u);
  EXPECT_EQ(ck.regions[0].label, "<root>");
  EXPECT_EQ(ck.program(), prof.communication_matrix());
  // Root aggregate equals the whole program.
  EXPECT_EQ(ck.aggregate(0), ck.program());
}

TEST(Checkpoint, RejectsEveryCorruptedByte) {
  cc::ProfilerOptions o;
  o.max_threads = 2;
  cc::Profiler prof(o);
  drive_pairs(prof, 3, 0x50000);
  const std::string text =
      serialize_checkpoint(prof, cr::CheckpointMeta{}, prof.stats());
  // Flipping any single payload byte must be caught by the CRC before the
  // parser can be confused by it.
  for (std::size_t i = 0; i + 12 < text.size(); i += 7) {
    std::string damaged = text;
    damaged[i] ^= 0x20;
    EXPECT_THROW((void)cr::parse_checkpoint_text(damaged), std::runtime_error)
        << "byte " << i;
  }
  // Truncation (torn write) is also rejected.
  EXPECT_THROW(
      (void)cr::parse_checkpoint_text(text.substr(0, text.size() / 2)),
      std::runtime_error);
}

TEST(Checkpoint, MissingTrailerRejected) {
  EXPECT_THROW((void)cr::parse_checkpoint_text("commscope-checkpoint 1\n"),
               std::runtime_error);
}

TEST(Checkpoint, AtomicWriteReplacesNotTruncates) {
  const std::string path = temp_path("ck_atomic.tmp");
  cs::write_file_atomic(path, "first version, which is longer\n");
  cs::write_file_atomic(path, "second version\n");
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "second version\n");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good()) << "temporary left behind";
  std::remove(path.c_str());
}

TEST(Checkpoint, AtomicWriteFailureNamesThePathAndLeavesNoTemporary) {
  const std::string path = temp_path("no_such_dir") + "/ck.bin";
  try {
    cs::write_file_atomic(path, "payload\n");
    FAIL() << "write into a missing directory succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

TEST(GuardedSink, KilledReplayLeavesResumableCheckpoint) {
  const std::string path = temp_path("ck_killed.tmp");
  cc::ProfilerOptions o;
  o.max_threads = 4;
  cc::Profiler prof(o);
  cr::FaultPlan plan;
  plan.kill_at_event = 550;
  cr::FaultInjector inj(plan, cr::KillMode::kThrow);
  cr::GuardedSink::Options so;
  so.checkpoint_every = 100;
  so.checkpoint_path = path;
  cr::GuardedSink sink(prof, nullptr, so, &inj);

  EXPECT_THROW(drive_pairs(sink, 400), cr::InjectedCrash);

  const cr::Checkpoint ck = cr::load_checkpoint(path);
  EXPECT_EQ(ck.meta.state, "partial");
  EXPECT_EQ(ck.meta.events, 500u) << "last checkpoint before the crash";
  EXPECT_GT(ck.stats.accesses, 0u);
  EXPECT_GT(ck.program().total(), 0u);
  std::remove(path.c_str());
}

TEST(GuardedSink, CleanRunWritesCompleteCheckpoint) {
  const std::string path = temp_path("ck_complete.tmp");
  cc::ProfilerOptions o;
  o.max_threads = 4;
  cc::Profiler prof(o);
  cr::GuardedSink::Options so;
  so.checkpoint_every = 100;
  so.checkpoint_path = path;
  cr::GuardedSink sink(prof, nullptr, so);
  drive_pairs(sink, 80);
  sink.finalize();
  const cr::Checkpoint ck = cr::load_checkpoint(path);
  EXPECT_EQ(ck.meta.state, "complete");
  EXPECT_EQ(ck.meta.events, prof.stats().accesses);
  EXPECT_EQ(ck.stats.dependencies, prof.stats().dependencies);
  std::remove(path.c_str());
}

TEST(GuardedSink, CorruptedCheckpointWriteIsRejectedOnLoad) {
  const std::string path = temp_path("ck_corrupt.tmp");
  cc::ProfilerOptions o;
  o.max_threads = 4;
  cc::Profiler prof(o);
  cr::FaultPlan plan;
  plan.corrupt_write_at = 40;
  cr::FaultInjector inj(plan, cr::KillMode::kThrow);
  cr::GuardedSink::Options so;
  so.checkpoint_every = 100;
  so.checkpoint_path = path;
  cr::GuardedSink sink(prof, nullptr, so, &inj);
  drive_pairs(sink, 60);  // crosses one checkpoint boundary: corrupt write
  EXPECT_THROW((void)cr::load_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(GuardedSink, MemBudgetRunEndsWithDegradationProvenance) {
  // Acceptance path (a): a run that exceeds --mem-budget completes and the
  // report carries the degradation section.
  cc::ProfilerOptions o;
  o.max_threads = 4;
  o.backend = cc::Backend::kExact;
  o.signature_slots = 1 << 13;
  cc::Profiler prof(o);
  cr::GuardOptions g;
  g.mem_budget_bytes = 32 << 10;
  g.check_interval = 64;
  cr::ResourceGuard guard(g, prof);
  cr::GuardedSink sink(prof, &guard, {});
  drive_pairs(sink, 5000);
  sink.finalize();
  EXPECT_FALSE(prof.degradations().empty());
  EXPECT_EQ(prof.options().backend, cc::Backend::kAsymmetricSignature);
  std::ostringstream report;
  cc::print_report(report, prof, {});
  EXPECT_NE(report.str().find("degradations:"), std::string::npos);
}

TEST(GuardedSink, FinalizeCountsBufferedAccesses) {
  // A guard with no budget leaves the sink ungated; finalize() reports the
  // profiler's access count as the sink.events gauge, and accesses still
  // sitting in micro-batches must be in it.
  cc::ProfilerOptions o;
  o.max_threads = 4;
  o.batch_size = 64;
  cc::Profiler prof(o);
  cr::ResourceGuard guard(cr::GuardOptions{}, prof);
  cr::GuardedSink sink(prof, &guard, {});
  for (int t = 0; t < 4; ++t) {
    sink.on_thread_begin(t);
    for (int i = 0; i < 100; ++i) {
      sink.on_access(t, 0x1000 + static_cast<std::uintptr_t>(i) * 8, 8,
                     i % 2 == 0 ? ci::AccessKind::kWrite
                                : ci::AccessKind::kRead);
    }
  }
  sink.finalize();
  EXPECT_EQ(prof.stats().accesses, 400u);
  EXPECT_EQ(commscope::telemetry::gauge("sink.events").value(),
            prof.stats().accesses);
}

// The event index is the profiler's access count with every batch drained:
// with one OS thread each periodic checkpoint fires at its exact access and
// covers it, batched or not.
TEST(GuardedSink, CheckpointIndexEqualsCoveredAccesses) {
  for (const std::uint32_t batch : {0u, 64u}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    const std::string path = temp_path("ck_index.tmp");
    cc::ProfilerOptions o;
    o.max_threads = 4;
    o.batch_size = batch;
    cc::Profiler prof(o);
    cr::GuardedSink::Options so;
    so.checkpoint_every = 100;
    so.checkpoint_path = path;
    cr::GuardedSink sink(prof, nullptr, so);
    drive_pairs(sink, 260);  // 520 accesses: the last mark is 500
    const cr::Checkpoint ck = cr::load_checkpoint(path);
    EXPECT_EQ(ck.meta.reason, "periodic");
    EXPECT_EQ(ck.meta.events, 500u);
    EXPECT_EQ(ck.stats.accesses, 500u);
    EXPECT_EQ(sink.checkpoints_written(), 5u);
    sink.finalize();
    std::remove(path.c_str());
  }
}

// Once the ladder is spent, memory over the budget is nothing a check can
// act on: the marks after it must not stop the world for it again.
TEST(GuardedSink, ExhaustedLadderStopsCheckingMemory) {
  cc::ProfilerOptions o;
  o.max_threads = 4;
  o.backend = cc::Backend::kExact;
  o.signature_slots = 1 << 13;
  cc::Profiler prof(o);
  cr::GuardOptions g;
  g.mem_budget_bytes = 1 << 10;
  g.event_budget = 1000000000000ULL;  // gated, never reached
  g.check_interval = 64;
  cr::ResourceGuard guard(g, prof);
  cr::GuardedSink sink(prof, &guard, {});
  const std::uint64_t before =
      commscope::telemetry::counter("guard.checks").value();
  drive_pairs(sink, 5000);
  sink.finalize();
  EXPECT_EQ(commscope::telemetry::counter("guard.checks").value() - before, 1u);
  ASSERT_FALSE(prof.degradations().empty());
  EXPECT_NE(prof.degradations().back().action.find("ladder exhausted"),
            std::string::npos);
}

// --- concurrency hardening --------------------------------------------------

TEST(GuardedSink, ReentrantEventsAreDroppedAndCounted) {
  cc::ProfilerOptions o;
  o.max_threads = 4;
  o.backend = cc::Backend::kExact;
  cc::Profiler prof(o);
  cr::GuardedSink sink(prof, nullptr, {});

  // Simulate an instrumented allocator firing from inside the runtime: with
  // the thread already marked in-runtime, sink entries must drop (counted)
  // instead of recursing into profiler state mid-mutation.
  {
    commscope::threading::ReentrancyGuard outer;
    ASSERT_TRUE(outer.engaged());
    sink.on_access(0, 0x5000, 8, ci::AccessKind::kWrite);
    sink.on_loop_enter(0, 3);
    sink.on_loop_exit(0);
  }
  EXPECT_EQ(sink.reentrant_drops(), 3u);
  EXPECT_EQ(prof.stats().accesses, 0u);

  // Outside the runtime the same calls flow normally.
  sink.on_thread_begin(0);
  sink.on_access(0, 0x5000, 8, ci::AccessKind::kWrite);
  EXPECT_EQ(sink.reentrant_drops(), 3u);
  EXPECT_EQ(prof.stats().accesses, 1u);
}

TEST(GuardedSink, SinkCallsWithOutOfRangeTidDegrade) {
  cc::ProfilerOptions o;
  o.max_threads = 2;
  o.backend = cc::Backend::kExact;
  cc::Profiler prof(o);
  cr::GuardedSink sink(prof, nullptr, {});
  // tid -1 models a caller passing an id outside [0, max_threads): the
  // event is dropped with provenance, never a crash or OOB index.
  sink.on_thread_begin(-1);
  sink.on_access(-1, 0x6000, 8, ci::AccessKind::kWrite);
  sink.on_loop_enter(-1, 1);
  sink.on_loop_exit(-1);
  sink.finalize();
  EXPECT_EQ(prof.dropped_events(), 4u);
  EXPECT_EQ(prof.stats().accesses, 0u);
}

TEST(GuardedSink, FlushWritesPartialSnapshotMidRun) {
  const std::string path = temp_path("flush_snapshot.ck");
  cc::ProfilerOptions o;
  o.max_threads = 4;
  o.backend = cc::Backend::kExact;
  cc::Profiler prof(o);
  cr::GuardedSink::Options opts;
  opts.checkpoint_path = path;
  opts.checkpoint_every = 1u << 30;  // periodic never fires; only flush does
  cr::GuardedSink sink(prof, nullptr, opts);
  drive_pairs(sink, 16);
  // flush() is what the exit and fork handler invokes; the written
  // snapshot must parse, resume, and carry the pre-flush dependency count.
  sink.flush();
  const cr::Checkpoint ck = cr::load_checkpoint(path);
  EXPECT_EQ(ck.meta.reason, "flush");
  EXPECT_EQ(ck.meta.state, "partial");
  EXPECT_EQ(ck.program().total(), 16u * 8u);
  std::remove(path.c_str());
}
