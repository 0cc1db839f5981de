// Threading substrate tests: partitioning properties (parameterized sweep),
// spinlock mutual exclusion, barrier phasing, ThreadTeam execution.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "threading/barrier.hpp"
#include "threading/registry.hpp"
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

TEST(ThreadRegistry, StableWithinThread) {
  const int a = ct::ThreadRegistry::current_tid();
  const int b = ct::ThreadRegistry::current_tid();
  EXPECT_EQ(a, b);
  int other = -1;
  std::thread t([&] { other = ct::ThreadRegistry::current_tid(); });
  t.join();
  EXPECT_NE(other, a);
  EXPECT_GE(ct::ThreadRegistry::registered_count(), 2);
}

TEST(ThreadRegistry, SlotReclaimedAndReusedAfterThreadExit) {
  int first = -1;
  std::thread t1([&] { first = ct::ThreadRegistry::current_tid(); });
  t1.join();  // join guarantees the lease destructor has run
  ASSERT_GE(first, 0);
  const int live_between = ct::ThreadRegistry::live_count();
  int second = -1;
  std::thread t2([&] { second = ct::ThreadRegistry::current_tid(); });
  t2.join();
  // Lowest-free-slot leasing makes reuse deterministic once the predecessor
  // is joined: the successor lands exactly where the exited thread was.
  EXPECT_EQ(second, first);
  EXPECT_EQ(ct::ThreadRegistry::live_count(), live_between);
}

TEST(ThreadRegistry, ChurnNeverLeaksLiveSlots) {
  const int live_before = ct::ThreadRegistry::live_count();
  for (int round = 0; round < 50; ++round) {
    std::thread t([] { (void)ct::ThreadRegistry::current_tid(); });
    t.join();
  }
  EXPECT_EQ(ct::ThreadRegistry::live_count(), live_before);
  EXPECT_GE(ct::ThreadRegistry::registered_count(), 50);
}

TEST(ThreadRegistry, OverflowDegradesToUnregistered) {
  // Park enough registered threads to fill every slot, then one more must
  // get kUnregistered (a counted degrade) rather than an out-of-range id.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<std::thread> parked;
  const int to_park = ct::ThreadRegistry::capacity() -
                      ct::ThreadRegistry::live_count();
  ASSERT_GT(to_park, 0);
  std::atomic<int> registered{0};
  for (int i = 0; i < to_park; ++i) {
    parked.emplace_back([&] {
      (void)ct::ThreadRegistry::current_tid();
      registered.fetch_add(1);
      std::unique_lock lk(mu);
      cv.wait(lk, [&] { return release; });
    });
  }
  while (registered.load() < to_park) std::this_thread::yield();
  EXPECT_EQ(ct::ThreadRegistry::live_count(), ct::ThreadRegistry::capacity());

  const std::uint64_t overflows_before = ct::ThreadRegistry::overflows();
  int overflow_tid = 0;
  std::thread extra([&] { overflow_tid = ct::ThreadRegistry::current_tid(); });
  extra.join();
  EXPECT_EQ(overflow_tid, ct::ThreadRegistry::kUnregistered);
  EXPECT_GT(ct::ThreadRegistry::overflows(), overflows_before);

  {
    std::lock_guard lk(mu);
    release = true;
  }
  cv.notify_all();
  for (auto& t : parked) t.join();

  // Churn freed the table: the overflow was transient, not sticky.
  int late_tid = ct::ThreadRegistry::kUnregistered;
  std::thread late([&] { late_tid = ct::ThreadRegistry::current_tid(); });
  late.join();
  EXPECT_GE(late_tid, 0);
}

TEST(ThreadRegistry, ReentrancyGuardEngagesOutermostOnly) {
  EXPECT_FALSE(ct::ThreadRegistry::in_runtime());
  ct::ThreadRegistry::ReentrancyGuard outer;
  EXPECT_TRUE(outer.engaged());
  EXPECT_TRUE(ct::ThreadRegistry::in_runtime());
  {
    ct::ThreadRegistry::ReentrancyGuard inner;
    EXPECT_FALSE(inner.engaged());
    ct::ThreadRegistry::ReentrancyGuard innermost;
    EXPECT_FALSE(innermost.engaged());
  }
  EXPECT_TRUE(ct::ThreadRegistry::in_runtime());
}

namespace {
std::vector<int>& flush_order() {
  // Deliberately leaked: the registered hooks fire again from the
  // registry's atexit pass, which can run after a plain static's
  // destructor — an immortal store keeps that exit-time call safe.
  static std::vector<int>* order = new std::vector<int>();
  return *order;
}
void flush_hook_a() noexcept { flush_order().push_back(1); }
void flush_hook_b() noexcept { flush_order().push_back(2); }
void flush_hook_recursive() noexcept {
  flush_order().push_back(3);
  // A hook that itself triggers a flush (e.g. exit() called from a handler)
  // must not recurse.
  ct::ThreadRegistry::run_flush_hooks();
}
}  // namespace

TEST(ThreadRegistry, FlushHooksRunNewestFirstWithoutRecursion) {
  ASSERT_TRUE(ct::ThreadRegistry::at_flush(&flush_hook_a));
  ASSERT_TRUE(ct::ThreadRegistry::at_flush(&flush_hook_b));
  ASSERT_TRUE(ct::ThreadRegistry::at_flush(&flush_hook_recursive));
  EXPECT_FALSE(ct::ThreadRegistry::at_flush(nullptr));
  flush_order().clear();
  ct::ThreadRegistry::run_flush_hooks();
  EXPECT_EQ(flush_order(), (std::vector<int>{3, 2, 1}));
}
