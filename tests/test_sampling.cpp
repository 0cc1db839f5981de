// SamplingSink tests: duty-cycle bookkeeping, burst structure, loop-event
// passthrough, and end-to-end accuracy of scaled sampled profiles.
#include <gtest/gtest.h>

#include <memory>

#include "core/profiler.hpp"
#include "instrument/sampling.hpp"
#include "support/stats.hpp"
#include "threading/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace cc = commscope::core;
namespace ci = commscope::instrument;
namespace ct = commscope::threading;
namespace cw = commscope::workloads;

namespace {

class CountingSink final : public ci::AccessSink {
 public:
  void on_thread_begin(int) override { ++thread_begins; }
  void on_loop_enter(int, ci::LoopId) override { ++loop_enters; }
  void on_loop_exit(int) override { ++loop_exits; }
  void on_access(int, std::uintptr_t addr, std::uint32_t,
                 ci::AccessKind) override {
    ++accesses;
    last_addr = addr;
  }
  void finalize() override { ++finalizes; }

  int thread_begins = 0;
  int loop_enters = 0;
  int loop_exits = 0;
  int finalizes = 0;
  int accesses = 0;
  std::uintptr_t last_addr = 0;
};

}  // namespace

TEST(SamplingSink, ZeroOffForwardsEverything) {
  CountingSink inner;
  ci::SamplingSink sampler(inner, {.burst_on = 4, .burst_off = 0});
  for (int i = 0; i < 100; ++i) {
    sampler.on_access(0, 0x1000, 8, ci::AccessKind::kRead);
  }
  EXPECT_EQ(inner.accesses, 100);
  EXPECT_DOUBLE_EQ(sampler.duty_cycle(), 1.0);
  EXPECT_DOUBLE_EQ(sampler.scale_factor(), 1.0);
}

TEST(SamplingSink, BurstStructureForwardsPrefixOfEachCycle) {
  CountingSink inner;
  ci::SamplingSink sampler(inner, {.burst_on = 3, .burst_off = 5});
  // Cycle of 8: positions 0,1,2 forwarded; 3..7 dropped.
  for (int i = 0; i < 16; ++i) {
    sampler.on_access(0, static_cast<std::uintptr_t>(0x2000 + i), 1,
                      ci::AccessKind::kRead);
  }
  EXPECT_EQ(inner.accesses, 6);
  EXPECT_EQ(sampler.forwarded(), 6u);
  EXPECT_EQ(sampler.dropped(), 10u);
  EXPECT_DOUBLE_EQ(sampler.duty_cycle(), 3.0 / 8.0);
}

TEST(SamplingSink, PerThreadCountersAreIndependent) {
  CountingSink inner;
  ci::SamplingSink sampler(inner, {.burst_on = 1, .burst_off = 1});
  // Thread 0 takes 3 accesses (positions 0,1,2 -> 2 forwarded), thread 1
  // takes 1 (position 0 -> forwarded): independent cycles.
  for (int i = 0; i < 3; ++i) {
    sampler.on_access(0, 0x3000, 1, ci::AccessKind::kRead);
  }
  sampler.on_access(1, 0x3000, 1, ci::AccessKind::kRead);
  EXPECT_EQ(inner.accesses, 3);
}

TEST(SamplingSink, ControlEventsAlwaysPassThrough) {
  CountingSink inner;
  ci::SamplingSink sampler(inner, {.burst_on = 1, .burst_off = 1000});
  sampler.on_thread_begin(0);
  sampler.on_loop_enter(0, 0);
  sampler.on_loop_exit(0);
  sampler.finalize();
  EXPECT_EQ(inner.thread_begins, 1);
  EXPECT_EQ(inner.loop_enters, 1);
  EXPECT_EQ(inner.loop_exits, 1);
  EXPECT_EQ(inner.finalizes, 1);
}

TEST(SamplingSink, OutOfRangeTidsPassThroughUnsampled) {
  // -1 is negative; 64 is one past the sampler's lanes. Neither may index a
  // lane: both reach the inner sink unsampled, and a Profiler underneath
  // drops and counts them.
  CountingSink inner;
  ci::SamplingSink sampler(inner, {.burst_on = 1, .burst_off = 3});
  for (const int tid : {-1, 64}) {
    for (int i = 0; i < 8; ++i) {
      sampler.on_access(tid, 0x4000, 8, ci::AccessKind::kWrite);
    }
  }
  EXPECT_EQ(inner.accesses, 16);
  EXPECT_EQ(sampler.forwarded(), 0u);
  EXPECT_EQ(sampler.dropped(), 0u);

  cc::ProfilerOptions opts;
  opts.max_threads = 4;
  opts.signature_slots = 1 << 12;
  cc::Profiler prof(opts);
  ci::SamplingSink guarded(prof, {.burst_on = 1, .burst_off = 3});
  for (const int tid : {-1, 4, 64}) {
    guarded.on_access(tid, 0x4000, 8, ci::AccessKind::kRead);
  }
  guarded.finalize();
  EXPECT_EQ(prof.dropped_events(), 3u);
  EXPECT_EQ(prof.stats().accesses, 0u);
}

TEST(SamplingSink, SampledProfilePreservesShapeAndBoundsVolume) {
  // A dependency survives sampling only if its producing write AND the
  // consumer's first read both land in on-bursts, so the sampled volume is
  // NOT duty-cycle-linear (bench/ablation_sampling quantifies the bias).
  // The invariants that must hold: sampling never invents volume, captures a
  // nonzero subset at this duty cycle, and preserves the matrix shape well
  // enough for pattern detection.
  ct::ThreadTeam team(4);
  const cw::Workload* w = cw::find("ocean_ncp");

  cc::ProfilerOptions o;
  o.max_threads = 4;
  o.backend = cc::Backend::kExact;
  auto full = std::make_unique<cc::Profiler>(o);
  ASSERT_TRUE(w->run(cw::Scale::kDev, team, full.get()).ok);

  auto sampled = std::make_unique<cc::Profiler>(o);
  ci::SamplingSink sampler(*sampled, {.burst_on = 256, .burst_off = 768});
  ASSERT_TRUE(w->run(cw::Scale::kDev, team, &sampler).ok);
  EXPECT_DOUBLE_EQ(sampler.duty_cycle(), 0.25);
  EXPECT_GT(sampler.dropped(), sampler.forwarded());

  const auto full_total =
      static_cast<double>(full->communication_matrix().total());
  const auto sampled_total =
      static_cast<double>(sampled->communication_matrix().total());
  ASSERT_GT(full_total, 0.0);
  EXPECT_GT(sampled_total, 0.0);
  EXPECT_LE(sampled_total, full_total);  // sampling never invents volume
  // The duty-cycle-scaled estimate is a sane order-of-magnitude bound even
  // though pair-survival makes it biased low.
  EXPECT_GE(sampled_total * sampler.scale_factor(),
            full_total * sampler.duty_cycle());

  const double shape = commscope::support::cosine_similarity(
      full->communication_matrix().normalized(),
      sampled->communication_matrix().normalized());
  EXPECT_GT(shape, 0.75);
}
