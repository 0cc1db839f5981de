// Communication matrices.
//
// Section IV.D: "Communication matrix is a n x n adjacency matrix while n is
// the number of threads available in the program. It defines the volume of
// data dependencies among the threads while the program is running."
//
// Convention used throughout CommScope: cell (p, c) holds the bytes thread c
// consumed that thread p produced (RAW: p wrote, c read). Rows are producers,
// columns consumers, matching the axes of Figures 6 and 7.
//
// CommMatrix is the concurrent accumulator: one relaxed atomic counter per
// cell. Only a dependency's consumer thread books it (Algorithm 1 runs in
// the thread that reads), so the cells are stored consumer-major: consumer
// c's column holds its producers' cells contiguously, at c * stride + p.
// The stride is n rounded up to 8 cells (one 64-byte line) and the block is
// 64-byte aligned, so every column starts on a line of its own and no two
// consumers ever write the same line. A row-major block would pack a
// 4-thread matrix's 16 cells into two lines that all four consumers write.
// The padding is charged: byte_size(n) is n * stride * 8 (+128 B at n = 4,
// nothing at multiples of 8). snapshot() transposes back to the row-major
// Matrix every reader uses.
//
// The add stays a locked fetch_add rather than a single-writer load and
// store: the maintainer drains other threads' batches into their columns
// (flush_all under quiescence), and the stress harness hands one logical
// tid from thread to thread, so a column is not provably single-writer.
// What the locked add cost at nproc threads was the wait for its line to
// come back from another consumer's core, and in a column of its own the
// line stays put.
//
// Matrix is the plain value snapshot used by reports, metrics and
// classifiers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace commscope::core {

/// Per-cell counter ceiling. Accumulation clamps here instead of wrapping:
/// a wrapped uint64 would silently report a near-empty matrix after ~1.8e19
/// bytes of attributed communication, while a clamped cell plus a raised
/// `saturated` provenance flag reports "at least this much" honestly.
inline constexpr std::uint64_t kCommCounterCap = std::uint64_t{1} << 62;

/// Immutable-size value-type snapshot of a communication matrix.
class Matrix {
 public:
  Matrix() = default;
  explicit Matrix(int n) : n_(n), cells_(static_cast<std::size_t>(n) * n, 0) {}

  [[nodiscard]] int size() const noexcept { return n_; }

  [[nodiscard]] std::uint64_t at(int producer, int consumer) const noexcept {
    return cells_[idx(producer, consumer)];
  }
  [[nodiscard]] std::uint64_t& at(int producer, int consumer) noexcept {
    return cells_[idx(producer, consumer)];
  }

  /// Total bytes produced by `tid` (row sum) — Eq. 1's numerator.
  [[nodiscard]] std::uint64_t row_sum(int tid) const noexcept;
  /// Total bytes consumed by `tid` (column sum).
  [[nodiscard]] std::uint64_t col_sum(int tid) const noexcept;
  /// Total communicated bytes.
  [[nodiscard]] std::uint64_t total() const noexcept;

  /// Saturating accumulation: cells clamp at kCommCounterCap and the
  /// `saturated` flags OR together.
  Matrix& operator+=(const Matrix& other);
  /// Value equality over dimension and cells. The saturated flag is
  /// provenance, not value, and is deliberately excluded.
  [[nodiscard]] bool operator==(const Matrix& other) const noexcept {
    return n_ == other.n_ && cells_ == other.cells_;
  }

  /// True when any contributing accumulator clamped a counter: every number
  /// derived from this matrix is a lower bound, not an exact volume.
  [[nodiscard]] bool saturated() const noexcept { return saturated_; }
  void mark_saturated() noexcept { saturated_ = true; }

  /// Row-major cells, length size()*size().
  [[nodiscard]] std::span<const std::uint64_t> cells() const noexcept {
    return cells_;
  }

  /// Cells as doubles normalized so the maximum is 1 (all-zero stays zero).
  /// Input form for the pattern classifier — scale invariance makes patterns
  /// comparable across input sizes.
  [[nodiscard]] std::vector<double> normalized() const;

  /// Copy reduced to the top-left t x t corner (drop unused thread slots).
  [[nodiscard]] Matrix trimmed(int t) const;

  /// Smallest t such that rows/cols >= t are all zero.
  [[nodiscard]] int active_threads() const noexcept;

 private:
  [[nodiscard]] std::size_t idx(int p, int c) const noexcept {
    return static_cast<std::size_t>(p) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(c);
  }

  int n_ = 0;
  std::vector<std::uint64_t> cells_;
  bool saturated_ = false;
};

/// Concurrent accumulator: one relaxed atomic counter per (producer,
/// consumer) pair, in consumer-owned 64-byte-aligned columns.
class CommMatrix {
 public:
  explicit CommMatrix(int n);

  CommMatrix(const CommMatrix&) = delete;
  CommMatrix& operator=(const CommMatrix&) = delete;

  [[nodiscard]] int size() const noexcept { return n_; }

  /// Saturating accumulate: on crossing kCommCounterCap the cell clamps
  /// there and the matrix-wide `saturated` flag is raised, instead of the
  /// counter wrapping. Concurrent adds race benignly — every racer observes
  /// a sum past the cap and re-stores the clamp. One relaxed fetch_add plus
  /// a never-taken branch in the unsaturated (i.e. real) regime.
  void add(int producer, int consumer, std::uint64_t bytes) noexcept {
    std::atomic<std::uint64_t>& c = cell(producer, consumer);
    const std::uint64_t sum =
        c.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (sum >= kCommCounterCap) [[unlikely]] {
      c.store(kCommCounterCap, std::memory_order_relaxed);
      saturated_.store(true, std::memory_order_relaxed);
    }
  }

  /// True when any cell has clamped at kCommCounterCap.
  [[nodiscard]] bool saturated() const noexcept {
    return saturated_.load(std::memory_order_relaxed);
  }

  /// Row-major value copy (rows producers, columns consumers).
  [[nodiscard]] Matrix snapshot() const;

  void reset() noexcept;

  /// Bytes held, padding included: n columns of stride(n) cells.
  [[nodiscard]] static std::size_t byte_size(int n) noexcept {
    return static_cast<std::size_t>(n) * stride(n) *
           sizeof(std::atomic<std::uint64_t>);
  }

 private:
  static constexpr std::size_t kLineCells = 8;
  struct alignas(64) Line {
    std::atomic<std::uint64_t> cells[kLineCells];
  };

  /// Cells per consumer column: n rounded up to a whole cache line.
  [[nodiscard]] static std::size_t stride(int n) noexcept {
    return (static_cast<std::size_t>(n) + kLineCells - 1) / kLineCells *
           kLineCells;
  }

  [[nodiscard]] std::atomic<std::uint64_t>& cell(int producer,
                                                 int consumer) const noexcept {
    const std::size_t i = static_cast<std::size_t>(consumer) * stride_ +
                          static_cast<std::size_t>(producer);
    return lines_[i / kLineCells].cells[i % kLineCells];
  }

  int n_;
  std::size_t stride_;
  std::unique_ptr<Line[]> lines_;
  std::atomic<bool> saturated_{false};
};

}  // namespace commscope::core
