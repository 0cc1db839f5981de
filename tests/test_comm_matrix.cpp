// Communication-matrix tests: accumulator semantics, snapshot value type,
// Eq.1-supporting row/column sums, normalization, trimming, concurrency.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/comm_matrix.hpp"

namespace cc = commscope::core;

TEST(Matrix, StartsZero) {
  cc::Matrix m(4);
  EXPECT_EQ(m.total(), 0u);
  EXPECT_EQ(m.size(), 4);
  EXPECT_EQ(m.active_threads(), 0);
}

TEST(Matrix, RowAndColSums) {
  cc::Matrix m(3);
  m.at(0, 1) = 10;
  m.at(0, 2) = 5;
  m.at(2, 0) = 7;
  EXPECT_EQ(m.row_sum(0), 15u);  // bytes produced by thread 0
  EXPECT_EQ(m.col_sum(0), 7u);   // bytes consumed by thread 0
  EXPECT_EQ(m.total(), 22u);
}

TEST(Matrix, PlusEqualsAccumulates) {
  cc::Matrix a(2);
  cc::Matrix b(2);
  a.at(0, 1) = 3;
  b.at(0, 1) = 4;
  b.at(1, 0) = 1;
  a += b;
  EXPECT_EQ(a.at(0, 1), 7u);
  EXPECT_EQ(a.at(1, 0), 1u);
}

TEST(Matrix, PlusEqualsRejectsSizeMismatch) {
  cc::Matrix a(2);
  cc::Matrix b(3);
  EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(Matrix, NormalizedScalesToUnitMax) {
  cc::Matrix m(2);
  m.at(0, 1) = 50;
  m.at(1, 0) = 25;
  const std::vector<double> n = m.normalized();
  EXPECT_DOUBLE_EQ(n[1], 1.0);
  EXPECT_DOUBLE_EQ(n[2], 0.5);
}

TEST(Matrix, NormalizedAllZeroStaysZero) {
  cc::Matrix m(2);
  for (double v : m.normalized()) EXPECT_EQ(v, 0.0);
}

TEST(Matrix, TrimmedKeepsTopLeftCorner) {
  cc::Matrix m(4);
  m.at(0, 1) = 9;
  m.at(3, 3) = 5;
  const cc::Matrix t = m.trimmed(2);
  EXPECT_EQ(t.size(), 2);
  EXPECT_EQ(t.at(0, 1), 9u);
  EXPECT_EQ(t.total(), 9u);
}

TEST(Matrix, TrimBeyondSizeIsIdentity) {
  cc::Matrix m(2);
  m.at(1, 0) = 1;
  EXPECT_EQ(m.trimmed(10), m);
}

TEST(Matrix, ActiveThreadsFindsHighestTouchedIndex) {
  cc::Matrix m(8);
  m.at(1, 4) = 1;
  EXPECT_EQ(m.active_threads(), 5);  // rows/cols 5..7 silent
}

TEST(CommMatrix, SnapshotReflectsAdds) {
  cc::CommMatrix cm(3);
  cm.add(0, 1, 8);
  cm.add(0, 1, 8);
  cm.add(2, 0, 4);
  const cc::Matrix m = cm.snapshot();
  EXPECT_EQ(m.at(0, 1), 16u);
  EXPECT_EQ(m.at(2, 0), 4u);
}

TEST(CommMatrix, ResetClears) {
  cc::CommMatrix cm(2);
  cm.add(0, 1, 1);
  cm.reset();
  EXPECT_EQ(cm.snapshot().total(), 0u);
}

TEST(CommMatrix, RejectsNonPositiveSize) {
  EXPECT_THROW(cc::CommMatrix(0), std::invalid_argument);
}

TEST(CommMatrix, ConcurrentAddsLoseNothing) {
  cc::CommMatrix cm(4);
  constexpr int kThreads = 4;
  constexpr int kIters = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cm, t] {
      for (int i = 0; i < kIters; ++i) cm.add(t, (t + 1) % 4, 1);
    });
  }
  for (auto& th : threads) th.join();
  const cc::Matrix m = cm.snapshot();
  EXPECT_EQ(m.total(), static_cast<std::uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(m.at(t, (t + 1) % 4), static_cast<std::uint64_t>(kIters));
  }
}

TEST(CommMatrix, ConsumerColumnsAddConcurrentlyLoseNothing) {
  // The profiler's pattern: each thread books as the consumer, from every
  // producer, into its own column.
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  cc::CommMatrix cm(kThreads);
  std::vector<std::thread> threads;
  for (int c = 0; c < kThreads; ++c) {
    threads.emplace_back([&cm, c] {
      for (int i = 0; i < kIters; ++i) {
        for (int p = 0; p < kThreads; ++p) cm.add(p, c, 1 + p);
      }
    });
  }
  for (auto& th : threads) th.join();
  const cc::Matrix m = cm.snapshot();
  for (int p = 0; p < kThreads; ++p) {
    for (int c = 0; c < kThreads; ++c) {
      EXPECT_EQ(m.at(p, c), static_cast<std::uint64_t>(kIters) * (1 + p))
          << p << "," << c;
    }
  }
}

TEST(CommMatrix, SnapshotRoundTripsEveryCell) {
  // Cells live consumer-major with padded columns; the snapshot must put
  // each one back at (producer, consumer), whatever n is against the
  // 8-cell line.
  for (const int n : {1, 3, 4, 8, 9, 64}) {
    cc::CommMatrix cm(n);
    for (int p = 0; p < n; ++p) {
      for (int c = 0; c < n; ++c) {
        cm.add(p, c, static_cast<std::uint64_t>(p * n + c + 1));
      }
    }
    const cc::Matrix m = cm.snapshot();
    ASSERT_EQ(m.size(), n);
    for (int p = 0; p < n; ++p) {
      for (int c = 0; c < n; ++c) {
        EXPECT_EQ(m.at(p, c), static_cast<std::uint64_t>(p * n + c + 1))
            << "n=" << n << " (" << p << "," << c << ")";
      }
    }
  }
}

TEST(CommMatrix, ByteSizeFormula) {
  // n columns of n cells rounded up to a 64-byte line.
  EXPECT_EQ(cc::CommMatrix::byte_size(1), 64u);
  EXPECT_EQ(cc::CommMatrix::byte_size(4), 256u);
  EXPECT_EQ(cc::CommMatrix::byte_size(9), 9u * 16u * 8u);
  EXPECT_EQ(cc::CommMatrix::byte_size(32), 32u * 32u * 8u);
  EXPECT_EQ(cc::CommMatrix::byte_size(64), 64u * 64u * 8u);
}

// --- saturation contract ----------------------------------------------------

TEST(CommMatrix, SaturatesAtCapInsteadOfWrapping) {
  cc::CommMatrix m(2);
  EXPECT_FALSE(m.saturated());
  m.add(0, 1, cc::kCommCounterCap - 8);
  EXPECT_FALSE(m.saturated());
  // Crossing the cap clamps the cell and raises the provenance flag; a
  // wrapped counter would instead read as a near-empty matrix.
  m.add(0, 1, 16);
  EXPECT_TRUE(m.saturated());
  const cc::Matrix snap = m.snapshot();
  EXPECT_EQ(snap.at(0, 1), cc::kCommCounterCap);
  EXPECT_TRUE(snap.saturated());
  // Further adds stay clamped.
  m.add(0, 1, 1u << 20);
  EXPECT_EQ(m.snapshot().at(0, 1), cc::kCommCounterCap);
}

TEST(CommMatrix, ResetClearsSaturation) {
  cc::CommMatrix m(2);
  m.add(1, 0, cc::kCommCounterCap + 5);
  EXPECT_TRUE(m.saturated());
  m.reset();
  EXPECT_FALSE(m.saturated());
  EXPECT_EQ(m.snapshot().total(), 0u);
}

TEST(Matrix, PlusEqualsSaturatesPerCellAndOrsFlags) {
  cc::Matrix a(2);
  cc::Matrix b(2);
  a.at(0, 1) = cc::kCommCounterCap - 10;
  b.at(0, 1) = 100;
  a += b;
  EXPECT_EQ(a.at(0, 1), cc::kCommCounterCap);
  EXPECT_TRUE(a.saturated());

  // The flag also propagates from an already-saturated right-hand side.
  cc::Matrix c(2);
  cc::Matrix d(2);
  d.mark_saturated();
  c += d;
  EXPECT_TRUE(c.saturated());
}

TEST(Matrix, SaturationFlagIsProvenanceNotValue) {
  cc::Matrix a(2);
  cc::Matrix b(2);
  a.at(0, 1) = 7;
  b.at(0, 1) = 7;
  b.mark_saturated();
  // Equality compares dimension and cells only; trimming keeps the flag.
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(b.trimmed(2).saturated());
  EXPECT_FALSE(a.trimmed(2).saturated());
}
