// IPM-style logging profiler.
//
// The distributed-memory pattern-detection line of work the paper compares
// against (Kamil et al., Ma et al., Florez et al.) collects per-event logs
// through IPM, "128-bit signature size for each MPI call", and reconstructs
// the communication matrix post-mortem. Table I and Figure 5 fault this
// design on two counts this class reproduces:
//   * no real-time detection — the matrix only exists after finalize()
//     replays the log ("Variable, large output"),
//   * memory grows linearly with the event count (16 bytes per record here,
//     matching IPM's 128-bit records), unlike the bounded signature memory.
//
// Records are appended to per-thread chunked buffers (no cross-thread
// contention, like IPM's per-rank logs) and globally ordered by a shared
// sequence counter so the replay sees the true temporal order Algorithm 1
// requires.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/comm_matrix.hpp"
#include "instrument/sink.hpp"
#include "sigmem/exact_signature.hpp"

namespace commscope::baseline {

class IpmProfiler final : public instrument::AccessSink {
 public:
  explicit IpmProfiler(int max_threads);

  void on_thread_begin(int tid) override;
  void on_loop_enter(int tid, instrument::LoopId id) override;
  void on_loop_exit(int tid) override;
  /// Events whose tid is outside [0, max_threads) are ignored: they have no
  /// log to land in (a negative tid is never an index).
  void on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                 instrument::AccessKind kind) override;

  /// Replays the merged log through exact RAW detection. Must be called
  /// before communication_matrix() — the defining post-mortem step.
  void finalize() override;

  [[nodiscard]] core::Matrix communication_matrix() const;

  /// Log footprint: 16 bytes per recorded event (IPM's 128-bit records).
  [[nodiscard]] std::uint64_t memory_bytes() const;

  [[nodiscard]] std::uint64_t record_count() const;
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

 private:
  /// 128-bit packed record: [addr:48 | tid:6 | kind:1 | size:9] [seq:64].
  struct Record {
    std::uint64_t packed;
    std::uint64_t seq;
  };
  static_assert(sizeof(Record) == 16);

  struct alignas(64) ThreadLog {
    std::vector<Record> records;
  };

  int max_threads_;
  std::unique_ptr<ThreadLog[]> logs_;
  std::atomic<std::uint64_t> seq_{0};
  core::Matrix matrix_;
  bool finalized_ = false;
};

}  // namespace commscope::baseline
