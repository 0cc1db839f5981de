// Lock-free fixed-capacity atomic bitset.
//
// Backing store for bloom filters and reader masks. All mutation is via
// fetch_or / store on 64-bit words, so concurrent setters never lose bits
// (Section IV.D.3: "C++11 lock-free primitives for implementing signature
// memory arrays"). clear() is a plain store per word; the profiler tolerates
// the benign race this allows (a reader bit set concurrently with a writer's
// clear), exactly as the paper's shared-signature design does.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace commscope::support {

class AtomicBitset {
 public:
  AtomicBitset() = default;

  /// Constructs a bitset of at least `bits` bits, all zero.
  explicit AtomicBitset(std::size_t bits)
      : nbits_(bits),
        nwords_((bits + 63) / 64),
        words_(std::make_unique<std::atomic<std::uint64_t>[]>(nwords_)) {
    for (std::size_t w = 0; w < nwords_; ++w) {
      words_[w].store(0, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return nbits_; }
  [[nodiscard]] std::size_t word_count() const noexcept { return nwords_; }

  /// Bytes of backing storage, for the memory-accounting benches.
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return nwords_ * sizeof(std::uint64_t);
  }

  /// Atomically sets bit `i`; returns the previous value of the bit.
  bool set(std::size_t i) noexcept {
    const std::uint64_t mask = 1ULL << (i & 63U);
    const std::uint64_t old =
        words_[i >> 6].fetch_or(mask, std::memory_order_acq_rel);
    return (old & mask) != 0;
  }

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    const std::uint64_t mask = 1ULL << (i & 63U);
    return (words_[i >> 6].load(std::memory_order_acquire) & mask) != 0;
  }

  /// Clears every bit. Not atomic as a whole — see header comment.
  void clear() noexcept {
    for (std::size_t w = 0; w < nwords_; ++w) {
      words_[w].store(0, std::memory_order_release);
    }
  }

  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t n = 0;
    for (std::size_t w = 0; w < nwords_; ++w) {
      n += static_cast<std::size_t>(
          __builtin_popcountll(words_[w].load(std::memory_order_relaxed)));
    }
    return n;
  }

  [[nodiscard]] bool any() const noexcept {
    for (std::size_t w = 0; w < nwords_; ++w) {
      if (words_[w].load(std::memory_order_relaxed) != 0) return true;
    }
    return false;
  }

  /// Raw word access for iteration (e.g. enumerating reader thread ids).
  [[nodiscard]] std::uint64_t word(std::size_t w) const noexcept {
    return words_[w].load(std::memory_order_acquire);
  }

  /// The backing words (null when default-constructed), for operations that
  /// work on a word array directly (support::BloomWords).
  [[nodiscard]] std::atomic<std::uint64_t>* words() const noexcept {
    return words_.get();
  }

 private:
  std::size_t nbits_ = 0;
  std::size_t nwords_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
};

}  // namespace commscope::support
