// Two-level read signature (Figure 3a of the paper).
//
// "Two-level signature memory is designed for 'Read Signature' because we
// need to store the list of all threads which have accessed the correspondent
// memory location. It uses a fixed-length array of size n ... in combination
// with an efficient MurmurHash function that maps memory addresses to array
// indexes. The first-level array stores the pointers to the second-level
// arrays which are actually bloom filters."
//
// Here the n second-level bloom filters of reader thread ids, each sized
// from (thread count, FPRate) exactly as Eq. 2 prescribes, sit in one flat
// slab: slot s's filter is the bits/64 words at offset s * bits/64, so the
// first level is an address computation instead of a pointer array. The slab
// is the n-bloom layout Eq. 2 counts; it is mapped zero-filled at
// construction (support::Slab) and charged to the tracker whole, so the
// footprint is the input-independent constant Figure 5 demonstrates. A write
// to a slot clears its filter in place ("clear correspondent bloom filter in
// read signature"); nothing is ever allocated or freed after construction.
//
// The table is indexed by slot id only. The MurmurHash that maps an address
// to its slot is the detector's (core::AsymmetricDetector::slot_of), which
// hands the same id to both signatures.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "support/bloom.hpp"
#include "support/memtrack.hpp"
#include "support/slab.hpp"

namespace commscope::sigmem {

class ReadSignature {
 public:
  /// `slots`: number of bloom filters n. `max_threads`: bloom capacity t.
  /// `fp_rate`: bloom false-positive target (paper default 0.001).
  ReadSignature(std::size_t slots, int max_threads, double fp_rate,
                support::MemoryTracker* tracker = nullptr);
  ~ReadSignature();

  ReadSignature(const ReadSignature&) = delete;
  ReadSignature& operator=(const ReadSignature&) = delete;

  /// Hints `slot`'s bloom words into cache. The batched drain issues one per
  /// distinct slot of a block before it probes any of them.
  void prefetch(std::size_t slot) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(words_of(slot), 1 /*write*/, 1);
#else
    (void)slot;
#endif
  }

  /// `slot`'s bloom filter: a reference to its words in the slab.
  [[nodiscard]] support::BloomWords filter(std::size_t slot) const noexcept {
    return support::BloomWords(words_of(slot), bloom_params_);
  }

  /// The precomputed probe set insert(slot, tid)/contains(slot, tid) uses for
  /// an in-range tid — shared by every filter (same BloomParams), which is
  /// what lets the batched drain judge a whole block of gathered probe words
  /// against one probe set. Valid only for 0 <= tid < max_threads().
  struct ProbeSet {
    const support::BloomWords::Probe* probes;
    std::uint32_t count;
  };
  [[nodiscard]] ProbeSet probes_of(int tid) const noexcept {
    return ProbeSet{&probes_[static_cast<std::size_t>(tid) * probe_stride_],
                    probe_counts_[static_cast<std::size_t>(tid)]};
  }

  /// Inserts reader `tid` into `slot`'s bloom filter. Returns true if the
  /// tid was (apparently) already present — the "a not in read signature"
  /// test of Algorithm 1 in one atomic pass.
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
  [[nodiscard]] bool any(std::size_t slot) const noexcept {
    return filter(slot).any();
  }

  /// Clears `slot`'s reader set — Algorithm 1's response to a write ("clear
  /// correspondent bloom filter in read signature").
  void clear_slot(std::size_t slot) noexcept { filter(slot).clear(); }

  [[nodiscard]] int max_threads() const noexcept { return max_threads_; }
  [[nodiscard]] double fp_rate() const noexcept { return fp_rate_; }
  [[nodiscard]] support::BloomParams bloom_params() const noexcept {
    return bloom_params_;
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

  /// Bytes held: n bloom filters of bits/8 bytes each (Eq. 2's read term,
  /// with m rounded up to whole 64-bit words).
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return slots_ * slot_words_ * sizeof(support::BloomWords::Word);
  }

 private:
  std::size_t slots_;
  int max_threads_;
  double fp_rate_;
  support::BloomParams bloom_params_;
  std::size_t slot_words_;  // bloom_params_.bits / 64
  /// Per-tid precomputed bloom probe sets (tids 0..max_threads-1, the only
  /// keys Algorithm 1 inserts): `probe_stride_` entries per tid, count in
  /// `probe_counts_`. Every filter shares bloom_params_, so the positions are
  /// computed once here instead of k hash evaluations per insert — the
  /// hashing half of the batched pipeline's "hash whole block" amortization,
  /// and bit-identical to hashing inline (see BloomWords::insert_probes).
  std::uint32_t probe_stride_;
  std::vector<support::BloomWords::Probe> probes_;
  std::vector<std::uint32_t> probe_counts_;
  support::Slab slab_;
  support::BloomWords::Word* words_;  // slab_ as slots_ * slot_words_ words
  // Written by every thread on slow paths (a bad tid), while the fields
  // above are read by every insert and contains: a line of their own keeps
  // a rejection from invalidating max_threads_ or the probe sets in every
  // other thread's cache. It also line-aligns the signature wherever it is
  // embedded (AsymmetricDetector, Profiler::backend_).
  alignas(64) std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> overflow_inserts_{0};
  support::MemoryTracker* tracker_;

  [[nodiscard]] support::BloomWords::Word* words_of(std::size_t slot) const
      noexcept {
    return words_ + slot * slot_words_;
  }
};

}  // namespace commscope::sigmem
