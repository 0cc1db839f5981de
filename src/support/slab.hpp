// Zero-filled anonymous memory for the signature tables.
//
// Each signature is one flat array sized once from (slots, threads, FPRate),
// exactly as Eq. 2 counts it. A Slab maps that array straight from the
// kernel: pages arrive zero-filled on first touch, so construction runs no
// store loop and RSS follows the pages a run actually touches. The mapping
// starts on a 2 MiB boundary and, when at least 2 MiB long, is advised
// MADV_HUGEPAGE so random slot probes take fewer TLB misses. Both are
// per-mapping hints: no system setting is read or written, and a kernel that
// declines them leaves ordinary pages.
#pragma once

#include <cstddef>

namespace commscope::support {

class Slab {
 public:
  /// Maps `bytes` zero bytes (nothing for 0). Throws std::bad_alloc when the
  /// kernel refuses the mapping.
  explicit Slab(std::size_t bytes);
  ~Slab();

  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  /// The mapping as an array of T. Meant for lock-free std::atomic words,
  /// whose zero value is the all-zero bytes the kernel supplies.
  template <typename T>
  [[nodiscard]] T* as() const noexcept {
    return static_cast<T*>(data_);
  }

 private:
  void* data_ = nullptr;
  std::size_t mapped_ = 0;  // bytes rounded up to whole pages
};

}  // namespace commscope::support
