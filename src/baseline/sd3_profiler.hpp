// SD3-style stride-compressing dependence profiler.
//
// SD3 (Kim, Kim & Luk, MICRO'10) "reduces space overhead of tracing memory
// accesses by compressing strided accesses using a finite state machine" and
// finds dependencies in loops. Table I cites its "variable memory based on
// the input size" and 29x–289x slowdown as the contrast to DiscoPoP's fixed
// footprint. This re-implementation keeps the essential mechanics:
//
//  * per (thread, loop, access-kind) stride FSM: a run of accesses whose
//    addresses advance by a constant stride collapses into one
//    {base, stride, count} entry (state machine: FirstObserved →
//    StrideLearned → StrideConfirmed; a mismatch seals the entry and starts
//    a new one);
//  * dependence detection by interval intersection at finalize(): a write
//    progression of thread p overlapping a read progression of thread c in
//    the same loop yields a RAW edge p→c weighted by the number of
//    overlapping elements.
//
// Memory grows with the number of stride entries — small for regular
// array sweeps, input-proportional for irregular access (SD3's published
// behaviour). Detection is flow-insensitive within a loop (no temporal
// order), so it over-approximates compared to Algorithm 1; tests assert the
// over-approximation direction on regular kernels.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/comm_matrix.hpp"
#include "instrument/sink.hpp"

namespace commscope::baseline {

class Sd3Profiler final : public instrument::AccessSink {
 public:
  explicit Sd3Profiler(int max_threads);

  /// Events whose tid is outside [0, max_threads) are ignored: they have no
  /// per-thread state to update (a negative tid is never an index).
  void on_thread_begin(int tid) override;
  void on_loop_enter(int tid, instrument::LoopId id) override;
  void on_loop_exit(int tid) override;
  void on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                 instrument::AccessKind kind) override;

  /// Seals open stride entries and runs interval-intersection detection.
  void finalize() override;

  [[nodiscard]] core::Matrix communication_matrix() const;

  /// Footprint of the compressed access representation.
  [[nodiscard]] std::uint64_t memory_bytes() const;

  /// Total sealed stride entries (compression diagnostics).
  [[nodiscard]] std::uint64_t entry_count() const;

  /// Raw accesses absorbed (for compression-ratio reporting).
  [[nodiscard]] std::uint64_t access_count() const;

 private:
  /// One compressed strided progression: addresses base, base+stride, ...,
  /// base+(count-1)*stride, each `size` bytes.
  struct StrideEntry {
    std::uintptr_t base = 0;
    std::int64_t stride = 0;
    std::uint64_t count = 0;
    std::uint32_t size = 0;
  };

  /// FSM tracking the in-progress progression for one (loop, kind) stream.
  struct StrideFsm {
    enum class State { kEmpty, kFirstObserved, kStrideLearned };
    State state = State::kEmpty;
    std::uintptr_t first = 0;
    std::uintptr_t last = 0;
    std::int64_t stride = 0;
    std::uint64_t count = 0;
    std::uint32_t size = 0;
  };

  struct StreamKey {
    instrument::LoopId loop;
    bool is_write;
    auto operator<=>(const StreamKey&) const = default;
  };

  struct alignas(64) ThreadState {
    std::vector<instrument::LoopId> loop_stack;
    std::map<StreamKey, StrideFsm> fsms;
    std::map<StreamKey, std::vector<StrideEntry>> sealed;
    std::uint64_t accesses = 0;
    // Hot-path cache: accesses overwhelmingly stay in one (loop, kind)
    // stream, so the map lookup is skipped while the key is unchanged.
    StrideFsm* cached_fsm[2] = {nullptr, nullptr};
    instrument::LoopId cached_loop[2] = {instrument::kNoLoop - 1,
                                         instrument::kNoLoop - 1};
  };

  /// Half-open byte range covered by one or more progressions.
  struct Interval {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
  };

  static void seal(ThreadState& ts, const StreamKey& key);
  static std::vector<Interval> merged_intervals(
      const std::vector<StrideEntry>& entries);
  static std::uint64_t overlap_bytes(const std::vector<Interval>& a,
                                     const std::vector<Interval>& b);

  /// `tid`'s state, or nullptr when the tid is out of range.
  [[nodiscard]] ThreadState* thread(int tid) noexcept {
    if (static_cast<unsigned>(tid) >= static_cast<unsigned>(max_threads_)) {
      return nullptr;
    }
    return &threads_[static_cast<std::size_t>(tid)];
  }

  int max_threads_;
  std::unique_ptr<ThreadState[]> threads_;
  core::Matrix matrix_;
  bool finalized_ = false;
};

}  // namespace commscope::baseline
