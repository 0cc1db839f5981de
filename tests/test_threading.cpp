// Threading substrate tests: partitioning properties (parameterized sweep),
// spinlock mutual exclusion, barrier phasing, ThreadTeam execution, and the
// runtime's per-thread reentrancy guard.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "threading/barrier.hpp"
#include "threading/reentrancy.hpp"
#include "threading/spinlock.hpp"
#include "threading/thread_pool.hpp"

namespace ct = commscope::threading;

// --- block_partition: exhaustive property sweep -----------------------------

class PartitionSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(PartitionSweep, CoversExactlyOnceInOrder) {
  const auto [total, parties] = GetParam();
  std::size_t covered = 0;
  std::size_t prev_end = 0;
  for (int t = 0; t < parties; ++t) {
    const ct::Range r = ct::block_partition(total, parties, t);
    EXPECT_EQ(r.begin, prev_end);  // contiguous, ordered, gap-free
    EXPECT_LE(r.begin, r.end);
    covered += r.size();
    prev_end = r.end;
  }
  EXPECT_EQ(covered, total);
  EXPECT_EQ(prev_end, total);
}

TEST_P(PartitionSweep, NearEqualSizes) {
  const auto [total, parties] = GetParam();
  std::size_t min_sz = total + 1;
  std::size_t max_sz = 0;
  for (int t = 0; t < parties; ++t) {
    const ct::Range r = ct::block_partition(total, parties, t);
    min_sz = std::min(min_sz, r.size());
    max_sz = std::max(max_sz, r.size());
  }
  EXPECT_LE(max_sz - min_sz, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionSweep,
    ::testing::Combine(::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{7}, std::size_t{8},
                                         std::size_t{100}, std::size_t{1023}),
                       ::testing::Values(1, 2, 3, 7, 8, 16)));

// --- Spinlock ---------------------------------------------------------------

TEST(Spinlock, MutualExclusionUnderContention) {
  ct::Spinlock mu;
  long counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard lock(mu);
        ++counter;  // data race iff the lock is broken
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(Spinlock, TryLock) {
  ct::Spinlock mu;
  EXPECT_TRUE(mu.try_lock());
  EXPECT_FALSE(mu.try_lock());
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

// --- Barrier ----------------------------------------------------------------

TEST(Barrier, NoThreadPassesEarly) {
  constexpr int kThreads = 6;
  ct::Barrier barrier(kThreads);
  std::atomic<int> phase_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int phase = 0; phase < 5; ++phase) {
        phase_count.fetch_add(1);
        barrier.arrive_and_wait();
        // After the barrier, every thread of this phase has arrived.
        EXPECT_GE(phase_count.load(), (phase + 1) * kThreads);
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(phase_count.load(), 5 * kThreads);
}

TEST(Barrier, ReusableAcrossGenerations) {
  ct::Barrier barrier(2);
  std::thread partner([&] {
    for (int i = 0; i < 100; ++i) barrier.arrive_and_wait();
  });
  for (int i = 0; i < 100; ++i) barrier.arrive_and_wait();
  partner.join();
  EXPECT_EQ(barrier.parties(), 2);
}

// --- ThreadTeam -------------------------------------------------------------

TEST(ThreadTeam, RunsEveryTidExactlyOnce) {
  ct::ThreadTeam team(8);
  std::vector<std::atomic<int>> hits(8);
  team.run([&](int tid) { hits[static_cast<std::size_t>(tid)].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadTeam, SequentialRunsReuseWorkers) {
  ct::ThreadTeam team(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    team.run([&](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 40);
}

TEST(ThreadTeam, BarrierSynchronizesPhases) {
  ct::ThreadTeam team(4);
  std::vector<int> data(4, 0);
  std::atomic<bool> mismatch{false};
  team.run([&](int tid) {
    data[static_cast<std::size_t>(tid)] = tid + 1;
    team.barrier().arrive_and_wait();
    int sum = 0;
    for (int v : data) sum += v;
    if (sum != 10) mismatch.store(true);
  });
  EXPECT_FALSE(mismatch.load());
}

TEST(ThreadTeam, RejectsZeroWorkers) {
  EXPECT_THROW(ct::ThreadTeam(0), std::invalid_argument);
}

TEST(ReentrancyGuard, EngagesOutermostOnly) {
  {
    ct::ReentrancyGuard outer;
    EXPECT_TRUE(outer.engaged());
    {
      ct::ReentrancyGuard inner;
      EXPECT_FALSE(inner.engaged());
      ct::ReentrancyGuard innermost;
      EXPECT_FALSE(innermost.engaged());
    }
    // The inner guards' exits leave the outer one holding this thread...
    EXPECT_FALSE(ct::ReentrancyGuard().engaged());
    // ...and only this thread: another thread's first guard is outermost.
    bool other_engaged = false;
    std::thread t([&] { other_engaged = ct::ReentrancyGuard().engaged(); });
    t.join();
    EXPECT_TRUE(other_engaged);
  }
  // With the outer guard gone, the next entry is outermost again.
  EXPECT_TRUE(ct::ReentrancyGuard().engaged());
}
