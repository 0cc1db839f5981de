// Burst-sampling sink — the paper's future-work extension implemented.
//
// Section VII: "In the future we plan to apply sampling technique to reduce
// the overhead of instrumentation". SamplingSink sits between the kernel and
// any profiler: per thread it forwards `burst_on` consecutive accesses, then
// drops `burst_off`, repeating. Bursts (rather than 1-in-k thinning)
// preserve short temporal write→read chains inside the on-window, which is
// what RAW detection needs; loop enter/exit and thread-begin events are
// always forwarded so region attribution stays exact.
//
// A sampled profile underestimates communication volume by roughly the duty
// cycle; scale_factor() gives the canonical correction. The
// bench/ablation_sampling experiment quantifies the overhead/accuracy
// trade-off this buys.
#pragma once

#include <cstdint>

#include "instrument/sink.hpp"

namespace commscope::instrument {

struct SamplingOptions {
  std::uint32_t burst_on = 1024;  ///< accesses forwarded per cycle
  std::uint32_t burst_off = 0;    ///< accesses dropped per cycle (0 = off)
};

class SamplingSink final : public AccessSink {
 public:
  SamplingSink(AccessSink& inner, SamplingOptions options)
      : inner_(&inner), options_(options) {}

  void on_thread_begin(int tid) override { inner_->on_thread_begin(tid); }
  void on_loop_enter(int tid, LoopId id) override {
    inner_->on_loop_enter(tid, id);
  }
  void on_loop_exit(int tid) override { inner_->on_loop_exit(tid); }

  /// Tids outside the 64 sampled lanes (negative, or past the matrix
  /// dimension) are forwarded unsampled: they have no lane to index, and
  /// the inner sink owns the out-of-range contract (the Profiler drops and
  /// counts them).
  void on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                 AccessKind kind) override {
    if (static_cast<unsigned>(tid) >= kLanes) [[unlikely]] {
      inner_->on_access(tid, addr, size, kind);
      return;
    }
    Counters& c = counters_[static_cast<std::size_t>(tid)];
    const std::uint32_t cycle = options_.burst_on + options_.burst_off;
    const std::uint32_t pos = c.position;
    c.position = (pos + 1 == cycle) ? 0 : pos + 1;
    if (pos < options_.burst_on) {
      ++c.forwarded;
      inner_->on_access(tid, addr, size, kind);
    } else {
      ++c.dropped;
    }
  }

  void finalize() override { inner_->finalize(); }
  void on_drain(int tid) override { inner_->on_drain(tid); }

  [[nodiscard]] const SamplingOptions& options() const noexcept {
    return options_;
  }

  /// Fraction of accesses forwarded by configuration (duty cycle).
  [[nodiscard]] double duty_cycle() const noexcept {
    const double cycle =
        static_cast<double>(options_.burst_on) + options_.burst_off;
    return cycle == 0.0 ? 1.0 : static_cast<double>(options_.burst_on) / cycle;
  }

  /// Multiplier that corrects sampled communication volumes to full-stream
  /// estimates: 1 / duty_cycle.
  [[nodiscard]] double scale_factor() const noexcept {
    return 1.0 / duty_cycle();
  }

  [[nodiscard]] std::uint64_t forwarded() const noexcept {
    std::uint64_t n = 0;
    for (const Counters& c : counters_) n += c.forwarded;
    return n;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    std::uint64_t n = 0;
    for (const Counters& c : counters_) n += c.dropped;
    return n;
  }

 private:
  static constexpr unsigned kLanes = 64;  ///< the profilers' thread ceiling

  struct alignas(64) Counters {
    std::uint32_t position = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t dropped = 0;
  };

  AccessSink* inner_;
  SamplingOptions options_;
  Counters counters_[kLanes] = {};
};

}  // namespace commscope::instrument
