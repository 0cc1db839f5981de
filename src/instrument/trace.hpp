// Event-trace capture and replay.
//
// TraceRecorder is an AccessSink that captures the complete, globally
// ordered event stream (thread begins, loop enters/exits, accesses) of one
// profiled run; replay() feeds a stored trace into any other sink. It is
// the one recorded-event representation (CLI, benches, tests, stress).
//
// This gives CommScope a capability the paper's methodology needs but
// multi-threaded execution denies: *identical* inputs for every profiler
// under comparison. A live run's event interleaving varies with scheduling,
// so two profilers watching two executions can legitimately disagree;
// replaying one recorded trace through the signature profiler, the exact
// baseline, shadow memory and the IPM log makes their outputs exactly
// comparable (used by the cross-profiler equality tests and available for
// offline experimentation via save/load).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "instrument/sink.hpp"

namespace commscope::instrument {

/// One recorded event.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    kThreadBegin,
    kLoopEnter,
    kLoopExit,
    kAccess
  };
  Kind kind = Kind::kAccess;
  AccessKind access = AccessKind::kRead;  ///< when kind == kAccess
  std::uint16_t tid = 0;
  std::uint32_t size = 0;
  std::uint64_t payload = 0;  ///< address or LoopId
};

class TraceRecorder final : public AccessSink {
 public:
  void on_thread_begin(int tid) override;
  void on_loop_enter(int tid, LoopId id) override;
  void on_loop_exit(int tid) override;
  void on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                 AccessKind kind) override;

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// Bytes held by the recording (for capacity planning).
  [[nodiscard]] std::uint64_t byte_size() const noexcept {
    return events_.size() * sizeof(TraceEvent);
  }

  void clear() { events_.clear(); }

 private:
  std::mutex mu_;  // recording serializes events into one global order
  std::vector<TraceEvent> events_;
};

/// Delivers one recorded event to `sink` — the per-event step of replay().
inline void dispatch(const TraceEvent& e, AccessSink& sink) {
  switch (e.kind) {
    case TraceEvent::Kind::kThreadBegin:
      sink.on_thread_begin(e.tid);
      break;
    case TraceEvent::Kind::kLoopEnter:
      sink.on_loop_enter(e.tid, static_cast<LoopId>(e.payload));
      break;
    case TraceEvent::Kind::kLoopExit:
      sink.on_loop_exit(e.tid);
      break;
    case TraceEvent::Kind::kAccess:
      sink.on_access(e.tid, static_cast<std::uintptr_t>(e.payload), e.size,
                     e.access);
      break;
  }
}

/// Feeds a recorded trace into `sink` (serially, in recorded order),
/// draining the outgoing tid at every tid switch, and finalizes it.
void replay(const std::vector<TraceEvent>& events, AccessSink& sink);

/// Events per turn in round_robin(): at least the largest profiler
/// micro-batch (core::kMaxBatchSize), so full batches fit in one turn.
inline constexpr std::size_t kRoundRobinChunk = 256;

/// Reorders a trace into turns: tids in ascending order each emit their next
/// kRoundRobinChunk events, in program order, until all are out. The result
/// depends only on the per-tid streams, which makes it a fixed bench input;
/// it does not reproduce the recorded run, because moving one thread's
/// events past another's changes which write each read sees.
[[nodiscard]] std::vector<TraceEvent> round_robin(
    const std::vector<TraceEvent>& events);

/// Text serialization of a trace (one event per line, versioned header).
/// The loop-name table of every loop UID referenced by the trace is
/// serialized too: UIDs are process-local registry indices, so a trace
/// replayed in another process (the CLI's `replay` subcommand) would
/// otherwise lose its region labels.
void write_trace(std::ostream& os, const std::vector<TraceEvent>& events);

/// Parses a trace; throws std::runtime_error on malformed input. Loop UIDs
/// are re-declared in this process's LoopRegistry and the returned events'
/// loop ids remapped accordingly, so labels resolve correctly wherever the
/// trace is replayed.
[[nodiscard]] std::vector<TraceEvent> read_trace(std::istream& is);

}  // namespace commscope::instrument
