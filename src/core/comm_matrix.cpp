#include "core/comm_matrix.hpp"

#include <algorithm>
#include <stdexcept>

namespace commscope::core {

std::uint64_t Matrix::row_sum(int tid) const noexcept {
  std::uint64_t s = 0;
  for (int c = 0; c < n_; ++c) s += at(tid, c);
  return s;
}

std::uint64_t Matrix::col_sum(int tid) const noexcept {
  std::uint64_t s = 0;
  for (int p = 0; p < n_; ++p) s += at(p, tid);
  return s;
}

std::uint64_t Matrix::total() const noexcept {
  std::uint64_t s = 0;
  for (std::uint64_t v : cells_) s += v;
  return s;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (other.n_ != n_) throw std::invalid_argument("matrix size mismatch");
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const std::uint64_t sum = cells_[i] + other.cells_[i];
    if (sum >= kCommCounterCap) {
      cells_[i] = kCommCounterCap;
      saturated_ = true;
    } else {
      cells_[i] = sum;
    }
  }
  saturated_ = saturated_ || other.saturated_;
  return *this;
}

std::vector<double> Matrix::normalized() const {
  std::vector<double> out(cells_.size(), 0.0);
  const std::uint64_t maxv = cells_.empty()
                                 ? 0
                                 : *std::max_element(cells_.begin(), cells_.end());
  if (maxv == 0) return out;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    out[i] = static_cast<double>(cells_[i]) / static_cast<double>(maxv);
  }
  return out;
}

Matrix Matrix::trimmed(int t) const {
  t = std::min(t, n_);
  Matrix m(t);
  for (int p = 0; p < t; ++p) {
    for (int c = 0; c < t; ++c) m.at(p, c) = at(p, c);
  }
  if (saturated_) m.mark_saturated();
  return m;
}

int Matrix::active_threads() const noexcept {
  int active = 0;
  for (int i = 0; i < n_; ++i) {
    if (row_sum(i) > 0 || col_sum(i) > 0) active = i + 1;
  }
  return active;
}

CommMatrix::CommMatrix(int n) : n_(n), stride_(stride(n)) {
  if (n < 1) throw std::invalid_argument("CommMatrix needs n >= 1");
  lines_ = std::make_unique<Line[]>(static_cast<std::size_t>(n_) * stride_ /
                                    kLineCells);
  reset();
}

Matrix CommMatrix::snapshot() const {
  Matrix m(n_);
  for (int c = 0; c < n_; ++c) {
    for (int p = 0; p < n_; ++p) {
      m.at(p, c) = cell(p, c).load(std::memory_order_relaxed);
    }
  }
  if (saturated()) m.mark_saturated();
  return m;
}

void CommMatrix::reset() noexcept {
  const std::size_t lines = static_cast<std::size_t>(n_) * stride_ / kLineCells;
  for (std::size_t l = 0; l < lines; ++l) {
    for (std::atomic<std::uint64_t>& c : lines_[l].cells) {
      c.store(0, std::memory_order_relaxed);
    }
  }
  saturated_.store(false, std::memory_order_relaxed);
}

}  // namespace commscope::core
