// Two-level read signature (Figure 3a of the paper).
//
// "Two-level signature memory is designed for 'Read Signature' because we
// need to store the list of all threads which have accessed the correspondent
// memory location. It uses a fixed-length array of size n ... in combination
// with an efficient MurmurHash function that maps memory addresses to array
// indexes. The first-level array stores the pointers to the second-level
// arrays which are actually bloom filters."
//
// First level: n atomic BloomFilter pointers. Second level: a bloom filter of
// reader thread ids, sized from (thread count, FPRate) exactly as Eq. 2
// prescribes. Bloom filters are allocated lazily on first insertion into a
// slot ("If the element is empty, a pointer to the second array will be
// allocated"), CAS-published so concurrent first readers agree on one filter,
// and recycled (cleared, not freed) when a write invalidates the slot —
// keeping the memory footprint bounded by the slot count regardless of
// program input size, the property Figure 5 demonstrates.
//
// Like the write signature, the first-level array is sharded into
// power-of-two stripes keyed by the low bits of the slot index
// (stripe = slot & (S-1), index = slot >> log2(S)). Slot ids, slot_of(),
// lazy-allocation behaviour, and the Eq. 2 accounting are unchanged — only
// the physical placement moves, decoupling hash-adjacent slots' cache lines
// for concurrent batch flushers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/bloom.hpp"
#include "support/hash.hpp"
#include "support/memtrack.hpp"

namespace commscope::sigmem {

class ReadSignature {
 public:
  /// `slots`: first-level array length. `max_threads`: bloom capacity t.
  /// `fp_rate`: bloom false-positive target (paper default 0.001).
  ReadSignature(std::size_t slots, int max_threads, double fp_rate,
                support::MemoryTracker* tracker = nullptr);
  ~ReadSignature();

  ReadSignature(const ReadSignature&) = delete;
  ReadSignature& operator=(const ReadSignature&) = delete;

  /// Maps a memory address to its slot index; same mapping as the modulo
  /// (`h & (slots-1) == h % slots` for power-of-two slot counts), minus the
  /// per-event hardware divide. See WriteSignature::slot_of.
  [[nodiscard]] std::size_t slot_of(std::uintptr_t addr) const noexcept {
    return slot_from_hash(
        support::murmur_mix64(static_cast<std::uint64_t>(addr)));
  }

  /// slot_of with the murmur mix already done — callers probing both
  /// signatures hash the address once and reduce twice.
  [[nodiscard]] std::size_t slot_from_hash(std::uint64_t h) const noexcept {
    return slot_mask_ != 0 ? (h & slot_mask_) : h % slots_;
  }

  /// Hints `slot`'s first-level pointer cell into cache. Stage one of the
  /// batched hash-ahead: hash every event in the block, prefetch every
  /// first-level cell, then probe.
  void prefetch(std::size_t slot) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&cell(slot), 0 /*read*/, 1);
#else
    (void)slot;
#endif
  }

  /// Stage two of the hash-ahead: once the first-level cell is (likely)
  /// cached, follow the pointer and prefetch the bloom filter header (which
  /// holds the bit-array pointer stage three chases).
  void prefetch_filter(std::size_t slot) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    const support::BloomFilter* bf = cell(slot).load(std::memory_order_relaxed);
    if (bf != nullptr) __builtin_prefetch(bf, 1 /*write*/, 1);
#else
    (void)slot;
#endif
  }

  /// Stage three: with the header (likely) cached, prefetch the filter's bit
  /// words — a separate heap allocation, i.e. the third and final miss level
  /// on the read path that the probe itself would otherwise eat.
  void prefetch_filter_bits(std::size_t slot) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    const support::BloomFilter* bf = cell(slot).load(std::memory_order_relaxed);
    if (bf != nullptr) {
      if (const void* words = bf->bits_data(); words != nullptr) {
        __builtin_prefetch(words, 1 /*write*/, 1);
      }
    }
#else
    (void)slot;
#endif
  }

  /// The slot's bloom filter, or null if none has been allocated yet. The
  /// batched drain gathers these pointers for a whole block of slots before
  /// touching any filter's words, turning the pointer chase into independent
  /// loads. The pointer is stable once published (filters are recycled, never
  /// freed, until the signature is destroyed).
  [[nodiscard]] support::BloomFilter* filter_ptr(std::size_t slot) const
      noexcept {
    return cell(slot).load(std::memory_order_acquire);
  }

  /// The precomputed probe set insert(slot, tid)/contains(slot, tid) uses for
  /// an in-range tid — shared by every filter (same BloomParams), which is
  /// what lets the batched drain judge a whole block of gathered probe words
  /// against one probe set. Valid only for 0 <= tid < max_threads().
  struct ProbeSet {
    const support::BloomFilter::Probe* probes;
    std::uint32_t count;
  };
  [[nodiscard]] ProbeSet probes_of(int tid) const noexcept {
    return ProbeSet{&probes_[static_cast<std::size_t>(tid) * probe_stride_],
                    probe_counts_[static_cast<std::size_t>(tid)]};
  }

  /// clear_slot() that skips already-zero filter words (bit-identical end
  /// state; see BloomFilter::clear_sparing). The batched drain's write apply
  /// uses it so clearing the (commonly empty) read set of a write-dominated
  /// slot does not dirty the filter's cache line.
  void clear_slot_sparing(std::size_t slot) noexcept {
    support::BloomFilter* bf = cell(slot).load(std::memory_order_acquire);
    if (bf != nullptr) bf->clear_sparing();
  }

  /// Inserts reader `tid` into `slot`'s bloom filter (allocating it on first
  /// use). Returns true if the tid was (apparently) already present — the
  /// "a not in read signature" test of Algorithm 1 in one atomic pass.
  ///
  /// Contract: negative tids are rejected (counted in rejected(), reported
  /// "already present" so no dependence is manufactured); tids >=
  /// max_threads still insert — the bloom hash domain is unbounded — but are
  /// counted in overflow_inserts() because the Eq. 2 sizing (and hence the
  /// configured FP rate) assumed at most max_threads distinct members.
  bool insert(std::size_t slot, int tid) noexcept;

  /// Membership query without insertion.
  [[nodiscard]] bool contains(std::size_t slot, int tid) const noexcept;

  /// True if any reader has been recorded in `slot` since its last clear.
  /// Used by the approximate WAR/RAR classification extension.
  [[nodiscard]] bool any(std::size_t slot) const noexcept;

  /// Clears `slot`'s reader set — Algorithm 1's response to a write ("clear
  /// correspondent bloom filter in read signature"). The filter's storage is
  /// retained for reuse.
  void clear_slot(std::size_t slot) noexcept;

  void clear() noexcept;

  [[nodiscard]] std::size_t slots() const noexcept { return slots_; }
  /// Number of storage stripes (power of two).
  [[nodiscard]] std::size_t stripes() const noexcept { return stripe_mask_ + 1; }
  [[nodiscard]] int max_threads() const noexcept { return max_threads_; }
  [[nodiscard]] double fp_rate() const noexcept { return fp_rate_; }
  [[nodiscard]] support::BloomParams bloom_params() const noexcept {
    return bloom_params_;
  }

  /// Number of slots whose bloom filter has been allocated.
  [[nodiscard]] std::size_t allocated_filters() const noexcept {
    return allocated_.load(std::memory_order_relaxed);
  }

  /// insert() calls rejected for carrying a negative tid.
  [[nodiscard]] std::uint64_t rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }
  /// insert() calls whose tid was >= max_threads: the filter accepted them,
  /// but the configured false-positive rate no longer holds for those slots.
  [[nodiscard]] std::uint64_t overflow_inserts() const noexcept {
    return overflow_inserts_.load(std::memory_order_relaxed);
  }

  /// Actual bytes held: first-level pointer array + allocated filters.
  [[nodiscard]] std::size_t byte_size() const noexcept;

 private:
  std::size_t slots_;
  int max_threads_;
  double fp_rate_;
  support::BloomParams bloom_params_;
  /// Per-tid precomputed bloom probe sets (tids 0..max_threads-1, the only
  /// keys Algorithm 1 inserts): `probe_stride_` entries per tid, count in
  /// `probe_counts_`. Every filter shares bloom_params_, so the positions are
  /// computed once here instead of k hash evaluations per insert — the
  /// hashing half of the batched pipeline's "hash whole block" amortization,
  /// and bit-identical to hashing inline (see BloomFilter::insert_probes).
  std::uint32_t probe_stride_;
  std::vector<support::BloomFilter::Probe> probes_;
  std::vector<std::uint32_t> probe_counts_;
  std::size_t slot_mask_;  // slots - 1 when slots is a power of two, else 0
  std::size_t stripe_mask_;
  unsigned stripe_shift_;
  std::vector<std::unique_ptr<std::atomic<support::BloomFilter*>[]>> level1_;
  // Written by every thread on slow paths (a slot's first filter, a bad
  // tid), while the fields above are read by every insert and contains: a
  // line of their own keeps a filter allocation from invalidating
  // max_threads_ or the masks in every other thread's cache. It also
  // line-aligns the signature wherever it is embedded (Profiler::backend_).
  alignas(64) std::atomic<std::size_t> allocated_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> overflow_inserts_{0};
  support::MemoryTracker* tracker_;

  [[nodiscard]] std::atomic<support::BloomFilter*>& cell(std::size_t slot) const
      noexcept {
    return level1_[slot & stripe_mask_][slot >> stripe_shift_];
  }
  [[nodiscard]] std::size_t stripe_len(std::size_t stripe) const noexcept {
    return (slots_ - stripe + stripe_mask_) >> stripe_shift_;
  }
  [[nodiscard]] support::BloomFilter* get_or_create(std::size_t slot) noexcept;
};

}  // namespace commscope::sigmem
