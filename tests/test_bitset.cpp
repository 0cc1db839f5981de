// AtomicBitset tests, including the concurrent fetch_or no-lost-bits
// guarantee the signature memories rely on.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "support/bitset.hpp"

namespace cs = commscope::support;

TEST(AtomicBitset, StartsAllZero) {
  cs::AtomicBitset bs(130);
  EXPECT_EQ(bs.size(), 130u);
  EXPECT_EQ(bs.count(), 0u);
  EXPECT_FALSE(bs.any());
  for (std::size_t i = 0; i < 130; ++i) EXPECT_FALSE(bs.test(i));
}

TEST(AtomicBitset, SetReturnsPreviousValue) {
  cs::AtomicBitset bs(64);
  EXPECT_FALSE(bs.set(5));
  EXPECT_TRUE(bs.set(5));
  EXPECT_TRUE(bs.test(5));
}

TEST(AtomicBitset, WordBoundaries) {
  cs::AtomicBitset bs(192);
  bs.set(0);
  bs.set(63);
  bs.set(64);
  bs.set(191);
  EXPECT_EQ(bs.count(), 4u);
  EXPECT_TRUE(bs.test(63));
  EXPECT_TRUE(bs.test(64));
  EXPECT_FALSE(bs.test(65));
  EXPECT_EQ(bs.word_count(), 3u);
  EXPECT_EQ(bs.byte_size(), 24u);
}

TEST(AtomicBitset, ClearZeroesEverything) {
  cs::AtomicBitset bs(100);
  for (std::size_t i = 0; i < 100; i += 3) bs.set(i);
  bs.clear();
  EXPECT_EQ(bs.count(), 0u);
}

TEST(AtomicBitset, ConcurrentSettersLoseNoBits) {
  constexpr std::size_t kBits = 4096;
  cs::AtomicBitset bs(kBits);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bs, t] {
      // Each thread sets bits i where i % kThreads == t; ranges interleave
      // within shared words, exercising fetch_or contention.
      for (std::size_t i = static_cast<std::size_t>(t); i < kBits;
           i += kThreads) {
        bs.set(i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bs.count(), kBits);
}
