// Resilience subsystem tests: memory-tracker guardrails, the graceful-
// degradation ladder, crash-safe checkpoints, and deterministic fault
// injection. The end-to-end signal/watchdog paths are exercised through the
// CLI in test_cli.cpp; these tests drive the same machinery in-process with
// KillMode::kThrow so a "crash" is a catchable exception.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/profiler.hpp"
#include "core/report.hpp"
#include "instrument/loop_registry.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/crash_guard.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/guarded_sink.hpp"
#include "resilience/resource_guard.hpp"
#include "resilience/run_stack.hpp"
#include "sigmem/exact_signature.hpp"
#include "support/args.hpp"
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

// --- RunSpec / RunStack: flags to options, and the stack they build --------

namespace {

/// Sets $COMMSCOPE_FAULT (unsets it for nullptr) for one scope, then
/// restores what was there: the no-PMU CI job sets it for the whole run.
class ScopedFaultEnv {
 public:
  explicit ScopedFaultEnv(const char* value) {
    if (const char* prior = std::getenv("COMMSCOPE_FAULT")) prior_ = prior;
    set(value);
  }
  ~ScopedFaultEnv() { set(prior_.has_value() ? prior_->c_str() : nullptr); }
  ScopedFaultEnv(const ScopedFaultEnv&) = delete;
  ScopedFaultEnv& operator=(const ScopedFaultEnv&) = delete;

 private:
  static void set(const char* value) {
    if (value != nullptr) {
      ::setenv("COMMSCOPE_FAULT", value, 1);
    } else {
      ::unsetenv("COMMSCOPE_FAULT");
    }
  }
  std::optional<std::string> prior_;
};

/// The spec `commscope run fft <flags>` profiles with, at `threads`.
cr::RunSpec spec_of(std::vector<std::string> flags, int threads = 4) {
  flags.insert(flags.begin(), {"run", "fft"});
  return cr::RunSpec::from_flags(
      cs::ArgParser(flags, {"classify", "sparse", "perf"}), threads);
}

}  // namespace

TEST(RunStack, FromFlagsMapsEveryFlagAndItsDefault) {
  const ScopedFaultEnv env(nullptr);
  const cr::RunSpec d = spec_of({}, 6);
  const cc::ProfilerOptions po;
  EXPECT_EQ(d.profiler.max_threads, 6);
  EXPECT_EQ(d.profiler.signature_slots, std::size_t{1} << 20);
  EXPECT_EQ(d.profiler.signature_slots, po.signature_slots);
  EXPECT_DOUBLE_EQ(d.profiler.fp_rate, 0.001);
  EXPECT_EQ(d.profiler.backend, cc::Backend::kAsymmetricSignature);
  EXPECT_FALSE(d.profiler.classify_dependences);
  EXPECT_FALSE(d.profiler.sparse_region_matrices);
  EXPECT_EQ(d.profiler.phase_window_bytes, 0u);
  EXPECT_EQ(d.profiler.batch_size, 0u);
  EXPECT_EQ(d.profiler.epoch_accesses, 0u);
  EXPECT_EQ(d.profiler.epoch_millis, 0u);
  EXPECT_EQ(d.profiler.epoch_ring, 0u);
  EXPECT_FALSE(d.profiler.epoch_replay);
  EXPECT_FALSE(d.profiler.perf);
  EXPECT_EQ(d.guard.mem_budget_bytes, 0u);
  EXPECT_EQ(d.guard.event_budget, 0u);
  EXPECT_EQ(d.guard.check_interval, cr::GuardOptions{}.check_interval);
  EXPECT_TRUE(d.sink.checkpoint_path.empty());
  EXPECT_EQ(d.sink.checkpoint_every, 0u);
  EXPECT_EQ(d.watchdog_seconds, 0.0);
  EXPECT_FALSE(d.faults.has_value());

  const cr::RunSpec s = spec_of(
      {"--backend=exact", "--slots=4096", "--fp-rate=0.01", "--classify",
       "--sparse", "--phases=65536", "--batch=64", "--epoch-every=1000",
       "--epoch-ms=5", "--epoch-ring=100", "--perf", "--mem-budget=64K",
       "--event-budget=1000", "--checkpoint=ck.bin", "--checkpoint-every=500",
       "--timeout=0.5"});
  EXPECT_EQ(s.profiler.max_threads, 4);
  EXPECT_EQ(s.profiler.signature_slots, 4096u);
  EXPECT_DOUBLE_EQ(s.profiler.fp_rate, 0.01);
  EXPECT_EQ(s.profiler.backend, cc::Backend::kExact);
  EXPECT_TRUE(s.profiler.classify_dependences);
  EXPECT_TRUE(s.profiler.sparse_region_matrices);
  EXPECT_EQ(s.profiler.phase_window_bytes, 65536u);
  EXPECT_EQ(s.profiler.batch_size, 64u);
  EXPECT_EQ(s.profiler.epoch_accesses, 1000u);
  EXPECT_EQ(s.profiler.epoch_millis, 5u);
  EXPECT_EQ(s.profiler.epoch_ring, 100u);
  EXPECT_TRUE(s.profiler.perf);
  EXPECT_EQ(s.guard.mem_budget_bytes, 64u * 1024u);
  EXPECT_EQ(s.guard.event_budget, 1000u);
  EXPECT_EQ(s.sink.checkpoint_path, "ck.bin");
  EXPECT_EQ(s.sink.checkpoint_every, 500u);
  EXPECT_DOUBLE_EQ(s.watchdog_seconds, 0.5);

  // --checkpoint-every defaults only with a checkpoint file to write, but a
  // malformed value fails either way.
  EXPECT_EQ(spec_of({"--checkpoint=ck.bin"}).sink.checkpoint_every,
            cr::kDefaultCheckpointEvery);
  EXPECT_EQ(cr::kDefaultCheckpointEvery, 65536u);
  EXPECT_EQ(spec_of({"--checkpoint-every=500"}).sink.checkpoint_every, 0u);
  EXPECT_THROW(spec_of({"--checkpoint-every=x"}), std::invalid_argument);
  EXPECT_THROW(spec_of({"--backend=exakt"}), std::invalid_argument);
  EXPECT_THROW(spec_of({"--mem-budget=12Q"}), std::invalid_argument);
  EXPECT_THROW(spec_of({"--batch=-1"}), std::invalid_argument);

  const ScopedFaultEnv kill("kill-at-event:5");
  const cr::RunSpec f = spec_of({});
  ASSERT_TRUE(f.faults.has_value());
  EXPECT_EQ(f.faults->kill_at_event, 5u);
}

TEST(RunStack, GuardedByAnyResilienceFeatureAndSinkFollows) {
  const std::string ck = temp_path("run_spec_combo.ck");
  // Bits 0-3 pick the flags that ask for the GuardedSink stack and bit 4 a
  // fault plan; the profile flags and a --checkpoint-every with no file
  // must not ask for it.
  const std::string triggers[] = {"--mem-budget=1G", "--event-budget=1000000",
                                  "--checkpoint=" + ck, "--timeout=100"};
  for (unsigned mask = 0; mask < 32; ++mask) {
    std::vector<std::string> flags = {"--slots=4096", "--batch=64",
                                      "--epoch-every=1000",
                                      "--checkpoint-every=100"};
    for (unsigned bit = 0; bit < 4; ++bit) {
      if ((mask & (1u << bit)) != 0) flags.push_back(triggers[bit]);
    }
    const ScopedFaultEnv env((mask & 16u) != 0 ? "kill-at-event:1000000000"
                                               : nullptr);
    const cr::RunSpec spec = spec_of(flags, 2);
    EXPECT_EQ(spec.guarded(), mask != 0) << "mask " << mask;
    {
      cr::RunStack stack(spec);
      const bool direct =
          &stack.sink() == static_cast<ci::AccessSink*>(&stack.profiler());
      EXPECT_EQ(direct, mask == 0) << "mask " << mask;
      EXPECT_EQ(cr::CrashGuard::instance().armed(), mask != 0)
          << "mask " << mask;
    }
    EXPECT_FALSE(cr::CrashGuard::instance().armed()) << "mask " << mask;
  }
  std::remove(ck.c_str());
}

TEST(RunStack, TelemetryOnlyFaultPlanAttachesNoInjector) {
  // perf-open-fail is read by the perf engine alone; it must not turn on
  // the gated path, here or when another flag builds the stack.
  const ScopedFaultEnv env("perf-open-fail:1");
  const cr::RunSpec plain = spec_of({});
  EXPECT_FALSE(plain.faults.has_value());
  EXPECT_FALSE(plain.guarded());
  const cr::RunSpec timed = spec_of({"--timeout=100"});
  EXPECT_FALSE(timed.faults.has_value());
  EXPECT_TRUE(timed.guarded());

  const ScopedFaultEnv mixed("perf-open-fail:1;kill-at-event:7");
  const cr::RunSpec both = spec_of({});
  ASSERT_TRUE(both.faults.has_value());
  EXPECT_EQ(both.faults->kill_at_event, 7u);
  EXPECT_TRUE(both.guarded());
}

TEST(RunStack, TeardownDisarmsAndCancelsTheWatchdog) {
  const ScopedFaultEnv env(nullptr);
  const cr::RunSpec spec = spec_of({"--slots=4096", "--timeout=0.2"}, 2);
  for (int round = 0; round < 2; ++round) {
    {
      cr::RunStack stack(spec);
      EXPECT_TRUE(cr::CrashGuard::instance().armed());
      drive_pairs(stack.sink(), 64);
      stack.sink().finalize();
      EXPECT_EQ(stack.profiler().stats().dependencies, 64u);
    }
    EXPECT_FALSE(cr::CrashGuard::instance().armed()) << "round " << round;
  }
  // A watchdog left running would _exit(124) and take the test with it.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  SUCCEED();
}
