// Shadow-memory comparator tests: exact detection parity with the perfect
// signature, page-granular allocation, persona memory scaling (Figure 5's
// Memcheck/Helgrind/Helgrind+ laws).
#include <gtest/gtest.h>

#include "baseline/shadow_profiler.hpp"
#include "sigmem/exact_signature.hpp"

namespace cb = commscope::baseline;
namespace ci = commscope::instrument;
namespace sg = commscope::sigmem;

TEST(ShadowProfiler, DetectsRawLikeExactBaseline) {
  cb::ShadowProfiler shadow(8);
  sg::ExactSignature exact(8);
  commscope::core::Matrix expected(8);

  std::uint64_t state = 99;
  for (int i = 0; i < 30000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uintptr_t addr = 0x700000 + (state >> 33) % 700 * 8;
    const int tid = static_cast<int>((state >> 20) % 8);
    if (((state >> 9) & 3) == 0) {
      shadow.on_access(tid, addr, 8, ci::AccessKind::kWrite);
      exact.on_write(addr, tid);
    } else {
      shadow.on_access(tid, addr, 8, ci::AccessKind::kRead);
      if (const auto p = exact.on_read(addr, tid)) {
        expected.at(*p, tid) += 8;
      }
    }
  }
  EXPECT_EQ(shadow.communication_matrix(), expected);
  EXPECT_GT(expected.total(), 0u);
}

TEST(ShadowProfiler, PagesAllocatedOnFirstTouchOnly) {
  cb::ShadowProfiler shadow(4);
  EXPECT_EQ(shadow.pages_touched(), 0u);
  shadow.on_access(0, 0x10000, 8, ci::AccessKind::kWrite);
  shadow.on_access(0, 0x10008, 8, ci::AccessKind::kWrite);  // same page
  EXPECT_EQ(shadow.pages_touched(), 1u);
  shadow.on_access(0, 0x20000, 8, ci::AccessKind::kWrite);  // new page
  EXPECT_EQ(shadow.pages_touched(), 2u);
}

TEST(ShadowProfiler, MemoryGrowsWithFootprintUnlikeSignatures) {
  cb::ShadowProfiler shadow(4);
  const std::uint64_t before = shadow.memory_bytes();
  for (std::uintptr_t a = 0; a < 4096; ++a) {
    shadow.on_access(0, 0x800000 + a * 64, 8, ci::AccessKind::kWrite);
  }
  EXPECT_GT(shadow.memory_bytes(), before);
  EXPECT_GE(shadow.pages_touched(), 60u);
}

TEST(ShadowProfiler, PersonaScalesReportedMemory) {
  cb::ShadowProfiler memcheck(4, cb::kMemcheck);
  cb::ShadowProfiler helgrind(4, cb::kHelgrind);
  cb::ShadowProfiler helgrind_plus(4, cb::kHelgrindPlus);
  for (auto* s : {&memcheck, &helgrind, &helgrind_plus}) {
    for (std::uintptr_t a = 0; a < 100; ++a) {
      s->on_access(0, 0x900000 + a * 4096, 8, ci::AccessKind::kWrite);
    }
  }
  // Same touched footprint, persona-proportional shadow bytes: 1.125 : 4 : 8.
  EXPECT_LT(memcheck.memory_bytes(), helgrind.memory_bytes());
  EXPECT_LT(helgrind.memory_bytes(), helgrind_plus.memory_bytes());
  EXPECT_EQ(helgrind_plus.memory_bytes(), 2 * helgrind.memory_bytes());
  // Detection cells are persona-independent.
  EXPECT_EQ(memcheck.cell_bytes(), helgrind_plus.cell_bytes());
}

TEST(ShadowProfiler, WriteInvalidatesReaders) {
  cb::ShadowProfiler shadow(4);
  shadow.on_access(0, 0xA000, 8, ci::AccessKind::kWrite);
  shadow.on_access(1, 0xA000, 8, ci::AccessKind::kRead);
  shadow.on_access(2, 0xA000, 8, ci::AccessKind::kWrite);
  shadow.on_access(1, 0xA000, 8, ci::AccessKind::kRead);  // counts again
  const auto m = shadow.communication_matrix();
  EXPECT_EQ(m.at(0, 1), 8u);
  EXPECT_EQ(m.at(2, 1), 8u);
}

TEST(ShadowProfiler, RejectsBadThreadCounts) {
  EXPECT_THROW(cb::ShadowProfiler(0), std::invalid_argument);
  EXPECT_THROW(cb::ShadowProfiler(65), std::invalid_argument);
}

TEST(ShadowProfiler, IgnoresOutOfRangeTids) {
  // -1 is negative; 4 is the thread count. Neither has a reader bit or a
  // matrix row: their reads and writes are ignored, so they neither record
  // a dependency nor displace the last valid writer.
  cb::ShadowProfiler shadow(4);
  for (const int tid : {-1, 4}) {
    shadow.on_access(tid, 0xB000, 8, ci::AccessKind::kWrite);
    shadow.on_access(1, 0xB000, 8, ci::AccessKind::kRead);
  }
  EXPECT_EQ(shadow.pages_touched(), 1u);  // only the valid reads touched it
  EXPECT_EQ(shadow.communication_matrix().total(), 0u);
  shadow.on_access(0, 0xB000, 8, ci::AccessKind::kWrite);
  for (const int tid : {-1, 4}) {
    shadow.on_access(tid, 0xB000, 8, ci::AccessKind::kRead);
  }
  shadow.on_access(1, 0xB000, 8, ci::AccessKind::kRead);
  const auto m = shadow.communication_matrix();
  EXPECT_EQ(m.at(0, 1), 8u);
  EXPECT_EQ(m.total(), 8u);
}
