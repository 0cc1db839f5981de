// One-level write signature (Figure 3b of the paper).
//
// "One-level signature memory tries to only store source thread numbers and
// is used for representing 'Write Signature'. In every situation, the values
// stored in the elements of this signature represent the last thread number
// which accessed the relevant memory location."
//
// Each slot is one lock-free 32-bit atomic holding `tid + 1` (0 = empty), so
// a slot is simultaneously an occupancy flag and the last-writer id —
// matching the 4-bytes-per-slot term of Eq. 2. The table is indexed by slot
// id only: core::AsymmetricDetector maps addresses to slots with MurmurHash
// and hands the same id to the read signature. Distinct addresses may
// collide, which is the signature's designed-in approximation (Section
// IV.D.2 discusses the accuracy/memory trade-off the slot count controls).
//
// The n cells are one flat array mapped zero-filled at construction
// (support::Slab, next to the read signature's) and charged to the tracker
// whole: the Eq. 2 write term, input-independent.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "support/memtrack.hpp"
#include "support/slab.hpp"

namespace commscope::sigmem {

class WriteSignature {
 public:
  /// Creates a signature with `slots` elements; allocation is charged to
  /// `tracker` when provided.
  explicit WriteSignature(std::size_t slots,
                          support::MemoryTracker* tracker = nullptr);
  ~WriteSignature();

  WriteSignature(const WriteSignature&) = delete;
  WriteSignature& operator=(const WriteSignature&) = delete;

  /// Records thread `tid` as the last writer of `slot`. Contract: tid must
  /// be a valid dense id (>= 0). A negative id cannot be encoded in the
  /// tid+1 cell scheme; it is rejected and counted instead of aliasing as a
  /// bogus writer after the unsigned cast wraps.
  void record(std::size_t slot, int tid) noexcept {
    if (tid < 0) [[unlikely]] {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    cell(slot).store(static_cast<std::uint32_t>(tid) + 1,
                     std::memory_order_release);
  }

  /// Last writer of `slot`, or nullopt if no write has been recorded.
  [[nodiscard]] std::optional<int> last_writer(std::size_t slot) const noexcept {
    const std::uint32_t v = cell(slot).load(std::memory_order_acquire);
    if (v == 0) return std::nullopt;
    return static_cast<int>(v - 1);
  }

  /// The raw cell encoding: 0 = empty, else last-writer tid + 1. The batched
  /// drain gathers these for a whole block of slots in one load pass (and
  /// skips the record() store when the cell already holds tid + 1 — same end
  /// state, no dirtied line).
  [[nodiscard]] std::uint32_t raw_last_writer(std::size_t slot) const noexcept {
    return cell(slot).load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t byte_size() const noexcept {
    return slots_ * sizeof(std::uint32_t);
  }
  /// Number of occupied slots (diagnostics / fill-rate tests).
  [[nodiscard]] std::size_t occupancy() const noexcept;

  /// record() calls rejected for carrying an invalid (negative) tid.
  [[nodiscard]] std::uint64_t rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t slots_;
  support::Slab slab_;
  std::atomic<std::uint32_t>* cells_;  // slab_ as slots_ cells
  support::MemoryTracker* tracker_;
  std::atomic<std::uint64_t> rejected_{0};

  [[nodiscard]] std::atomic<std::uint32_t>& cell(std::size_t slot) const
      noexcept {
    return cells_[slot];
  }
};

}  // namespace commscope::sigmem
