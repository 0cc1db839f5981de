// Trace record/replay tests — including the methodology payoff: one recorded
// workload trace replayed through every profiler yields exactly comparable
// matrices.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "baseline/ipm_profiler.hpp"
#include "baseline/shadow_profiler.hpp"
#include "core/profiler.hpp"
#include "instrument/trace.hpp"
#include "threading/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace cb = commscope::baseline;
namespace cc = commscope::core;
namespace ci = commscope::instrument;
namespace ct = commscope::threading;
namespace cw = commscope::workloads;

TEST(TraceRecorder, CapturesAllEventKindsInOrder) {
  ci::TraceRecorder rec;
  rec.on_thread_begin(2);
  rec.on_loop_enter(2, 7);
  rec.on_access(2, 0x1000, 8, ci::AccessKind::kWrite);
  rec.on_access(3, 0x1000, 8, ci::AccessKind::kRead);
  rec.on_loop_exit(2);
  ASSERT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.events()[0].kind, ci::TraceEvent::Kind::kThreadBegin);
  EXPECT_EQ(rec.events()[1].payload, 7u);
  EXPECT_EQ(rec.events()[2].access, ci::AccessKind::kWrite);
  EXPECT_EQ(rec.events()[3].tid, 3);
  EXPECT_EQ(rec.events()[4].kind, ci::TraceEvent::Kind::kLoopExit);
  EXPECT_EQ(rec.byte_size(), 5 * sizeof(ci::TraceEvent));
}

TEST(TraceReplay, ReproducesProfileExactly) {
  // Record a live 4-thread run once, then replay into a fresh profiler: the
  // replayed matrix must be a valid profile (and two replays must agree
  // bit-for-bit — replay is deterministic even though recording wasn't).
  ci::TraceRecorder rec;
  ct::ThreadTeam team(4);
  ASSERT_TRUE(cw::find("fft")->run(cw::Scale::kDev, team, &rec).ok);

  cc::ProfilerOptions o;
  o.max_threads = 4;
  o.backend = cc::Backend::kExact;
  auto a = std::make_unique<cc::Profiler>(o);
  auto b = std::make_unique<cc::Profiler>(o);
  ci::replay(rec.events(), *a);
  ci::replay(rec.events(), *b);
  EXPECT_EQ(a->communication_matrix(), b->communication_matrix());
  EXPECT_GT(a->communication_matrix().total(), 0u);
}

TEST(TraceReplay, AllProfilersAgreeOnOneTrace) {
  // The cross-profiler methodology: identical input stream => the exact
  // profiler, shadow memory and the IPM replay must produce the *same*
  // matrix (8-byte-element workload so shadow word granularity is exact).
  ci::TraceRecorder rec;
  ct::ThreadTeam team(4);
  ASSERT_TRUE(cw::find("ocean_cp")->run(cw::Scale::kDev, team, &rec).ok);

  cc::ProfilerOptions o;
  o.max_threads = 4;
  o.backend = cc::Backend::kExact;
  auto exact = std::make_unique<cc::Profiler>(o);
  cb::ShadowProfiler shadow(4);
  cb::IpmProfiler ipm(4);
  ci::replay(rec.events(), *exact);
  ci::replay(rec.events(), shadow);
  ci::replay(rec.events(), ipm);

  const cc::Matrix reference = exact->communication_matrix();
  EXPECT_GT(reference.total(), 0u);
  EXPECT_EQ(ipm.communication_matrix(), reference);
  // Shadow detects at 8-byte-word granularity; ocean's shared doubles are
  // word-aligned, but the barrier arrive flags are 1-byte cells that share a
  // word, so allow exactly that sliver of divergence.
  const auto shadow_total =
      static_cast<double>(shadow.communication_matrix().total());
  EXPECT_NEAR(shadow_total / static_cast<double>(reference.total()), 1.0,
              0.02);
}

TEST(TraceReplay, SignatureProfilerOnTraceMatchesExactWhenAmple) {
  ci::TraceRecorder rec;
  ct::ThreadTeam team(4);
  ASSERT_TRUE(cw::find("radix")->run(cw::Scale::kDev, team, &rec).ok);

  cc::ProfilerOptions exact_opt;
  exact_opt.max_threads = 4;
  exact_opt.backend = cc::Backend::kExact;
  auto exact = std::make_unique<cc::Profiler>(exact_opt);
  cc::ProfilerOptions sig_opt = exact_opt;
  sig_opt.backend = cc::Backend::kAsymmetricSignature;
  sig_opt.signature_slots = 1 << 22;
  sig_opt.fp_rate = 1e-9;
  auto sig = std::make_unique<cc::Profiler>(sig_opt);

  ci::replay(rec.events(), *exact);
  ci::replay(rec.events(), *sig);
  const auto te = static_cast<double>(exact->communication_matrix().total());
  const auto ts = static_cast<double>(sig->communication_matrix().total());
  ASSERT_GT(te, 0.0);
  EXPECT_NEAR(ts / te, 1.0, 0.02);
}

TEST(TraceReplay, RoundRobinKeepsProgramOrderInFixedTurns) {
  // tid 0 issues 300 accesses and tid 1 ten, interleaved one for one:
  // round_robin deals 256 of tid 0's, then tid 1's ten, then tid 0's last
  // 44, each tid's events in the order it issued them.
  ci::TraceRecorder rec;
  for (std::uint32_t i = 0; i < 300; ++i) {
    rec.on_access(0, i, 8, ci::AccessKind::kWrite);
    if (i < 10) rec.on_access(1, i, 8, ci::AccessKind::kRead);
  }
  const std::vector<ci::TraceEvent> rr = ci::round_robin(rec.events());
  ASSERT_EQ(rr.size(), 310u);
  for (std::size_t i = 0; i < rr.size(); ++i) {
    const bool tid1 = i >= 256 && i < 266;
    EXPECT_EQ(rr[i].tid, tid1 ? 1 : 0) << i;
    EXPECT_EQ(rr[i].payload, i < 256 ? i : tid1 ? i - 256 : i - 10) << i;
  }
}

TEST(TraceIo, RoundTripPreservesEventsAndLoopLabels) {
  const ci::LoopId loop =
      ci::LoopRegistry::instance().declare("traceio", "hotloop");
  // A loop name with spaces runs to the end of its line in the loop table.
  const ci::LoopId spaced =
      ci::LoopRegistry::instance().declare("traceio", "my hot loop");
  ci::TraceRecorder rec;
  rec.on_thread_begin(1);
  rec.on_loop_enter(1, loop);
  rec.on_access(1, 0xdeadbeef, 16, ci::AccessKind::kRead);
  rec.on_loop_exit(1);
  rec.on_loop_enter(1, spaced);
  rec.on_loop_exit(1);

  std::stringstream ss;
  ci::write_trace(ss, rec.events());
  const std::vector<ci::TraceEvent> loaded = ci::read_trace(ss);
  ASSERT_EQ(loaded.size(), rec.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].kind, rec.events()[i].kind);
    EXPECT_EQ(loaded[i].access, rec.events()[i].access);
    EXPECT_EQ(loaded[i].tid, rec.events()[i].tid);
    EXPECT_EQ(loaded[i].size, rec.events()[i].size);
  }
  // Loop UIDs are remapped on load (they are process-local), but the label
  // must survive the round trip — that is what makes cross-process replay
  // reports readable.
  EXPECT_EQ(ci::LoopRegistry::instance().label(
                static_cast<ci::LoopId>(loaded[1].payload)),
            "traceio:hotloop");
  EXPECT_EQ(ci::LoopRegistry::instance().label(
                static_cast<ci::LoopId>(loaded[4].payload)),
            "traceio:my hot loop");
  // Address payloads are never remapped.
  EXPECT_EQ(loaded[2].payload, 0xdeadbeefu);
}

TEST(TraceIo, RejectsMalformedInput) {
  std::stringstream bad_magic("nope 1\n0\n");
  EXPECT_THROW(ci::read_trace(bad_magic), std::runtime_error);
  std::stringstream bad_version("commscope-trace 9\n0\n");
  EXPECT_THROW(ci::read_trace(bad_version), std::runtime_error);
  std::stringstream truncated("commscope-trace 1\n2\n0 0 1 0 0\n");
  EXPECT_THROW(ci::read_trace(truncated), std::runtime_error);
  std::stringstream bad_kind("commscope-trace 1\n1\n9 0 1 0 0\n");
  EXPECT_THROW(ci::read_trace(bad_kind), std::runtime_error);
}
