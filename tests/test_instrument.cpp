// Instrumentation-layer tests: loop registry, RAII loop scopes, the
// COMMSCOPE_LOOP macro's once-per-site UID semantics, TracedSpan event
// emission, NullSink zero-cost property. Emitted events are captured with
// instrument::TraceRecorder.
#include <gtest/gtest.h>

#include <vector>

#include "instrument/loop_registry.hpp"
#include "instrument/loop_scope.hpp"
#include "instrument/sink.hpp"
#include "instrument/trace.hpp"
#include "instrument/traced.hpp"

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

TEST(TracedSpan, ReadsEmitReadEvents) {
  ci::TraceRecorder sink;
  std::vector<double> data{1.0, 2.0, 3.0};
  ci::TracedSpan<double, ci::AccessSink> span(data, sink, 7);
  EXPECT_DOUBLE_EQ(span[1], 2.0);
  EXPECT_DOUBLE_EQ(span.load(2), 3.0);
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.events()[0].access, ci::AccessKind::kRead);
  EXPECT_EQ(sink.events()[0].payload,
            reinterpret_cast<std::uintptr_t>(&data[1]));
  EXPECT_EQ(sink.events()[0].size, sizeof(double));
  EXPECT_EQ(sink.events()[0].tid, 7);
}

TEST(TracedSpan, StoresEmitWriteEventsAndMutate) {
  ci::TraceRecorder sink;
  std::vector<int> data{0, 0};
  ci::TracedSpan<int, ci::AccessSink> span(data, sink, 2);
  span.store(1, 42);
  EXPECT_EQ(data[1], 42);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.events()[0].access, ci::AccessKind::kWrite);
}

TEST(TracedSpan, UpdateEmitsReadThenWrite) {
  ci::TraceRecorder sink;
  std::vector<int> data{10};
  ci::TracedSpan<int, ci::AccessSink> span(data, sink, 0);
  span.update(0, [](int v) { return v + 5; });
  EXPECT_EQ(data[0], 15);
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.events()[0].access, ci::AccessKind::kRead);
  EXPECT_EQ(sink.events()[1].access, ci::AccessKind::kWrite);
}

TEST(TracedSpan, NullSinkVariantIsPureView) {
  ci::NullSink null;
  std::vector<double> data{5.0};
  ci::TracedSpan<double, ci::NullSink> span(data, null, 0);
  EXPECT_DOUBLE_EQ(span[0], 5.0);
  span.store(0, 6.0);
  EXPECT_DOUBLE_EQ(data[0], 6.0);
  EXPECT_EQ(span.size(), 1u);
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
