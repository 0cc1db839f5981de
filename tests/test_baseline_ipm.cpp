// IPM-style log profiler tests: post-mortem-only semantics, record-size
// memory law, replay parity with the exact detector.
#include <gtest/gtest.h>

#include <thread>

#include "baseline/ipm_profiler.hpp"
#include "sigmem/exact_signature.hpp"

namespace cb = commscope::baseline;
namespace ci = commscope::instrument;
namespace sg = commscope::sigmem;

TEST(IpmProfiler, MatrixUnavailableBeforeFinalize) {
  cb::IpmProfiler ipm(4);
  ipm.on_access(0, 0x1000, 8, ci::AccessKind::kWrite);
  EXPECT_THROW(ipm.communication_matrix(), std::logic_error);
  ipm.finalize();
  EXPECT_NO_THROW(ipm.communication_matrix());
}

TEST(IpmProfiler, SixteenBytesPerRecord) {
  cb::IpmProfiler ipm(4);
  for (int i = 0; i < 1000; ++i) {
    ipm.on_access(0, 0x1000 + static_cast<std::uintptr_t>(i) * 8, 8,
                  ci::AccessKind::kWrite);
  }
  EXPECT_EQ(ipm.record_count(), 1000u);
  EXPECT_EQ(ipm.memory_bytes(), 16000u);
}

TEST(IpmProfiler, ReplayMatchesExactDetection) {
  cb::IpmProfiler ipm(8);
  sg::ExactSignature exact(8);
  commscope::core::Matrix expected(8);

  std::uint64_t state = 5;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uintptr_t addr = 0x40000 + (state >> 33) % 300 * 8;
    const int tid = static_cast<int>((state >> 20) % 8);
    if (((state >> 9) & 3) == 0) {
      ipm.on_access(tid, addr, 8, ci::AccessKind::kWrite);
      exact.on_write(addr, tid);
    } else {
      ipm.on_access(tid, addr, 8, ci::AccessKind::kRead);
      if (const auto p = exact.on_read(addr, tid)) expected.at(*p, tid) += 8;
    }
  }
  ipm.finalize();
  EXPECT_EQ(ipm.communication_matrix(), expected);
  EXPECT_GT(expected.total(), 0u);
}

TEST(IpmProfiler, FinalizeIsIdempotent) {
  cb::IpmProfiler ipm(4);
  ipm.on_access(0, 0x2000, 8, ci::AccessKind::kWrite);
  ipm.on_access(1, 0x2000, 8, ci::AccessKind::kRead);
  ipm.finalize();
  const auto m1 = ipm.communication_matrix();
  ipm.finalize();
  EXPECT_EQ(ipm.communication_matrix(), m1);
  EXPECT_EQ(m1.at(0, 1), 8u);
}

TEST(IpmProfiler, PerThreadLogsMergeInTemporalOrder) {
  // Writer and reader alternate strictly; if replay ignored the sequence
  // numbers and processed per-thread logs back to back, the reader's N reads
  // would collapse to a single first-touch dependency.
  cb::IpmProfiler ipm(4);
  constexpr int kRounds = 50;
  for (int i = 0; i < kRounds; ++i) {
    ipm.on_access(0, 0x3000, 8, ci::AccessKind::kWrite);
    ipm.on_access(1, 0x3000, 8, ci::AccessKind::kRead);
  }
  ipm.finalize();
  EXPECT_EQ(ipm.communication_matrix().at(0, 1),
            static_cast<std::uint64_t>(kRounds) * 8);
}

TEST(IpmProfiler, ConcurrentAppendsAllRecorded) {
  cb::IpmProfiler ipm(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&ipm, t] {
      for (int i = 0; i < 5000; ++i) {
        ipm.on_access(t, 0x5000 + static_cast<std::uintptr_t>(i % 64) * 8, 8,
                      ci::AccessKind::kRead);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ipm.record_count(), 20000u);
}

TEST(IpmProfiler, IgnoresOutOfRangeTids) {
  // -1 is negative; 4 is the thread count. Neither has a log: both are
  // ignored, and the replay sees only the valid pair.
  cb::IpmProfiler ipm(4);
  ipm.on_access(0, 0x6000, 8, ci::AccessKind::kWrite);
  for (const int tid : {-1, 4}) {
    ipm.on_access(tid, 0x6000, 8, ci::AccessKind::kWrite);
    ipm.on_access(tid, 0x6000, 8, ci::AccessKind::kRead);
  }
  ipm.on_access(1, 0x6000, 8, ci::AccessKind::kRead);
  EXPECT_EQ(ipm.record_count(), 2u);
  ipm.finalize();
  const auto m = ipm.communication_matrix();
  EXPECT_EQ(m.at(0, 1), 8u);
  EXPECT_EQ(m.total(), 8u);
}
