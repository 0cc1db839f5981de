// Shadow-memory profiler — the Memcheck / Helgrind / Helgrind+ comparator.
//
// Figure 5 contrasts DiscoPoP's fixed signature memory with tools that
// "shadow every byte of memory used by a program" (Nethercote & Seward) and
// therefore grow with the application's footprint: Memcheck, Helgrind
// (32-bit shadow values) and Helgrind+ (64-bit shadow values). This profiler
// reproduces that architecture: a two-level page table maps each touched
// 4 KiB application page to a shadow page of per-word cells (last writer +
// reader bitmask), allocated on first touch. Detection is exact — shadow
// memory's accuracy is the thing its footprint pays for.
//
// The `shadow_bytes_per_app_byte` knob models the per-tool shadow-value
// width for the memory report (Memcheck ~1.125 B/B for V+A bits, Helgrind
// ~4 B/B, Helgrind+ ~8 B/B); the detection cells themselves are identical
// across personas.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>

#include "core/comm_matrix.hpp"
#include "instrument/sink.hpp"
#include "support/memtrack.hpp"

namespace commscope::baseline {

/// Shadow-value width personas from Figure 5.
struct ShadowPersona {
  const char* name;
  double shadow_bytes_per_app_byte;
};

inline constexpr ShadowPersona kMemcheck{"memcheck", 1.125};
inline constexpr ShadowPersona kHelgrind{"helgrind", 4.0};
inline constexpr ShadowPersona kHelgrindPlus{"helgrind+", 8.0};

class ShadowProfiler final : public instrument::AccessSink {
 public:
  ShadowProfiler(int max_threads, ShadowPersona persona = kMemcheck);

  void on_thread_begin(int tid) override;
  void on_loop_enter(int tid, instrument::LoopId id) override;
  void on_loop_exit(int tid) override;
  /// Events whose tid is outside [0, max_threads) are ignored: the tid has
  /// no reader bit and no matrix row (a negative tid is never an index).
  void on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                 instrument::AccessKind kind) override;

  [[nodiscard]] core::Matrix communication_matrix() const {
    return matrix_.snapshot();
  }

  /// Modeled footprint of this persona's shadow values over every touched
  /// page (the Figure 5 quantity).
  [[nodiscard]] std::uint64_t memory_bytes() const;

  /// Actual bytes held by the detection cells (persona-independent).
  [[nodiscard]] std::uint64_t cell_bytes() const;

  [[nodiscard]] std::size_t pages_touched() const;
  [[nodiscard]] const ShadowPersona& persona() const noexcept {
    return persona_;
  }

 private:
  static constexpr std::size_t kPageBytes = 4096;
  static constexpr std::size_t kWordsPerPage = kPageBytes / 8;

  struct Cell {
    std::atomic<std::uint64_t> readers{0};
    std::atomic<std::int32_t> writer{-1};
  };

  struct Page {
    Cell cells[kWordsPerPage];
  };

  [[nodiscard]] Cell& cell_for(std::uintptr_t addr);

  int max_threads_;
  ShadowPersona persona_;
  core::CommMatrix matrix_;
  mutable std::shared_mutex pages_mu_;
  std::unordered_map<std::uintptr_t, std::unique_ptr<Page>> pages_;
};

}  // namespace commscope::baseline
