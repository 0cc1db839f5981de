// SD3-style stride profiler tests: FSM compression, interval-overlap
// detection, memory scaling with access regularity.
#include <gtest/gtest.h>

#include "baseline/sd3_profiler.hpp"
#include "instrument/loop_registry.hpp"

namespace cb = commscope::baseline;
namespace ci = commscope::instrument;

namespace {

ci::LoopId loop_id(const char* name) {
  return ci::LoopRegistry::instance().declare("sd3", name);
}

}  // namespace

TEST(Sd3Profiler, CompressesRegularStrideToOneEntry) {
  cb::Sd3Profiler sd3(4);
  const ci::LoopId l = loop_id("stream");
  sd3.on_thread_begin(0);
  sd3.on_loop_enter(0, l);
  for (int i = 0; i < 1000; ++i) {
    sd3.on_access(0, 0x1000 + static_cast<std::uintptr_t>(i) * 8, 8,
                  ci::AccessKind::kRead);
  }
  sd3.on_loop_exit(0);
  sd3.finalize();
  EXPECT_EQ(sd3.entry_count(), 1u);
  EXPECT_EQ(sd3.access_count(), 1000u);
  EXPECT_LT(sd3.memory_bytes(), 1000u);  // 1000 accesses in one entry
}

TEST(Sd3Profiler, IrregularAccessesCostManyEntries) {
  cb::Sd3Profiler sd3(4);
  const ci::LoopId l = loop_id("random");
  sd3.on_thread_begin(0);
  sd3.on_loop_enter(0, l);
  std::uint64_t state = 17;
  for (int i = 0; i < 1000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    sd3.on_access(0, 0x10000 + (state >> 30) % 100000 * 8, 8,
                  ci::AccessKind::kRead);
  }
  sd3.on_loop_exit(0);
  sd3.finalize();
  // Random addresses defeat the stride FSM: entry count near access count.
  EXPECT_GT(sd3.entry_count(), 300u);
}

TEST(Sd3Profiler, DetectsOverlappingWriteReadIntervals) {
  cb::Sd3Profiler sd3(4);
  const ci::LoopId l = loop_id("overlap");
  // Thread 0 writes [0x2000, 0x2000+100*8); thread 1 reads the same range in
  // the same loop.
  sd3.on_thread_begin(0);
  sd3.on_loop_enter(0, l);
  for (int i = 0; i < 100; ++i) {
    sd3.on_access(0, 0x2000 + static_cast<std::uintptr_t>(i) * 8, 8,
                  ci::AccessKind::kWrite);
  }
  sd3.on_loop_exit(0);
  sd3.on_thread_begin(1);
  sd3.on_loop_enter(1, l);
  for (int i = 0; i < 100; ++i) {
    sd3.on_access(1, 0x2000 + static_cast<std::uintptr_t>(i) * 8, 8,
                  ci::AccessKind::kRead);
  }
  sd3.on_loop_exit(1);
  sd3.finalize();
  const auto m = sd3.communication_matrix();
  EXPECT_GT(m.at(0, 1), 0u);
  EXPECT_EQ(m.at(1, 0), 0u);  // reads don't produce
  // Flow-insensitive interval overlap over-approximates but stays within the
  // full range volume.
  EXPECT_LE(m.at(0, 1), 100u * 8u + 8u);
}

TEST(Sd3Profiler, DisjointRangesDoNotCommunicate) {
  cb::Sd3Profiler sd3(4);
  const ci::LoopId l = loop_id("disjoint");
  sd3.on_loop_enter(0, l);
  for (int i = 0; i < 50; ++i) {
    sd3.on_access(0, 0x3000 + static_cast<std::uintptr_t>(i) * 8, 8,
                  ci::AccessKind::kWrite);
  }
  sd3.on_loop_exit(0);
  sd3.on_loop_enter(1, l);
  for (int i = 0; i < 50; ++i) {
    sd3.on_access(1, 0x9000 + static_cast<std::uintptr_t>(i) * 8, 8,
                  ci::AccessKind::kRead);
  }
  sd3.on_loop_exit(1);
  sd3.finalize();
  EXPECT_EQ(sd3.communication_matrix().total(), 0u);
}

TEST(Sd3Profiler, DifferentLoopsDoNotIntersect) {
  cb::Sd3Profiler sd3(4);
  const ci::LoopId la = loop_id("loop_a");
  const ci::LoopId lb = loop_id("loop_b");
  sd3.on_loop_enter(0, la);
  for (int i = 0; i < 50; ++i) {
    sd3.on_access(0, 0x4000 + static_cast<std::uintptr_t>(i) * 8, 8,
                  ci::AccessKind::kWrite);
  }
  sd3.on_loop_exit(0);
  sd3.on_loop_enter(1, lb);  // same addresses, different loop scope
  for (int i = 0; i < 50; ++i) {
    sd3.on_access(1, 0x4000 + static_cast<std::uintptr_t>(i) * 8, 8,
                  ci::AccessKind::kRead);
  }
  sd3.on_loop_exit(1);
  sd3.finalize();
  EXPECT_EQ(sd3.communication_matrix().total(), 0u);
}

TEST(Sd3Profiler, MatrixThrowsBeforeFinalize) {
  cb::Sd3Profiler sd3(4);
  EXPECT_THROW(sd3.communication_matrix(), std::logic_error);
}

TEST(Sd3Profiler, NegativeStrideCompresses) {
  cb::Sd3Profiler sd3(4);
  const ci::LoopId l = loop_id("backward");
  sd3.on_loop_enter(0, l);
  for (int i = 100; i > 0; --i) {
    sd3.on_access(0, 0x6000 + static_cast<std::uintptr_t>(i) * 8, 8,
                  ci::AccessKind::kRead);
  }
  sd3.on_loop_exit(0);
  sd3.finalize();
  EXPECT_EQ(sd3.entry_count(), 1u);
}

TEST(Sd3Profiler, IgnoresOutOfRangeTids) {
  // -1 is negative; 4 is the thread count. Neither has per-thread state:
  // every event for them is ignored.
  cb::Sd3Profiler sd3(4);
  const ci::LoopId l = loop_id("outofrange");
  for (const int tid : {-1, 4}) {
    sd3.on_thread_begin(tid);
    sd3.on_loop_enter(tid, l);
    for (int i = 0; i < 10; ++i) {
      sd3.on_access(tid, 0x7000 + static_cast<std::uintptr_t>(i) * 8, 8,
                    ci::AccessKind::kWrite);
    }
    sd3.on_loop_exit(tid);
  }
  sd3.finalize();
  EXPECT_EQ(sd3.access_count(), 0u);
  EXPECT_EQ(sd3.entry_count(), 0u);
  EXPECT_EQ(sd3.communication_matrix().total(), 0u);
}
