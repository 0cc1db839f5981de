// Instrumentation-layer tests: loop registry, RAII loop scopes, the
// COMMSCOPE_LOOP macro's once-per-site UID semantics, typed sink
// convenience calls, NullSink zero-cost property. Emitted events are
// captured with instrument::TraceRecorder.
#include <gtest/gtest.h>

#include "instrument/loop_registry.hpp"
#include "instrument/loop_scope.hpp"
#include "instrument/sink.hpp"
#include "instrument/trace.hpp"

namespace ci = commscope::instrument;

TEST(LoopRegistry, AssignsDenseUniqueIds) {
  auto& reg = ci::LoopRegistry::instance();
  const ci::LoopId a = reg.declare("fn", "loop_a");
  const ci::LoopId b = reg.declare("fn", "loop_b");
  EXPECT_NE(a, b);
  EXPECT_EQ(b, a + 1);  // dense assignment
  EXPECT_EQ(reg.info(a).name, "loop_a");
  EXPECT_EQ(reg.info(b).function, "fn");
  EXPECT_EQ(reg.label(a), "fn:loop_a");
}

TEST(LoopRegistry, UnknownIdYieldsPlaceholder) {
  auto& reg = ci::LoopRegistry::instance();
  EXPECT_EQ(reg.label(ci::kNoLoop - 1), "?:?");
}

TEST(LoopScope, EmitsEnterAndExit) {
  ci::TraceRecorder sink;
  const ci::LoopId id = ci::LoopRegistry::instance().declare("s", "x");
  {
    ci::LoopScope scope(static_cast<ci::AccessSink&>(sink), 3, id);
    ASSERT_EQ(sink.size(), 1u);
    EXPECT_EQ(sink.events()[0].kind, ci::TraceEvent::Kind::kLoopEnter);
    EXPECT_EQ(sink.events()[0].tid, 3);
    EXPECT_EQ(sink.events()[0].payload, id);
  }
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.events()[1].kind, ci::TraceEvent::Kind::kLoopExit);
}

TEST(LoopScope, MacroDeclaresOncePerSite) {
  ci::TraceRecorder sink;
  ci::AccessSink& s = sink;
  const std::size_t before = ci::LoopRegistry::instance().size();
  for (int rep = 0; rep < 5; ++rep) {
    COMMSCOPE_LOOP(s, 0, "macro", "repeated");
  }
  // Five dynamic executions, one static declaration.
  EXPECT_EQ(ci::LoopRegistry::instance().size(), before + 1);
  EXPECT_EQ(sink.size(), 10u);  // 5 x (enter + exit)
  // Every execution reused the same UID.
  const std::uint64_t first = sink.events()[0].payload;
  for (std::size_t e = 0; e < sink.size(); e += 2) {
    EXPECT_EQ(sink.events()[e].payload, first);
  }
}

TEST(LoopScope, NullSinkSpecializationCompilesToNothing) {
  ci::NullSink null;
  COMMSCOPE_LOOP(null, 0, "null", "noop");
  // Nothing observable; the declaration above must still register the site.
  SUCCEED();
}

TEST(SinkConvenience, TypedReadWriteCarrySizeof) {
  ci::TraceRecorder sink;
  double d = 0.0;
  float f = 0.0f;
  sink.read(1, &d);
  sink.write(2, &f);
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.events()[0].size, 8u);
  EXPECT_EQ(sink.events()[1].size, 4u);
}
