// Bloom filter sizing and probe operations, per the paper's Eq. 2 sizing
// law.
//
// The read signature's second level is "a bloom filter [used] to save the
// list of threads which accessed the same memory address" (Section IV.D.2).
// Because the element universe is thread ids, capacity is the program's
// thread count t; the bit count m and hash count k are derived from the
// standard bloom formulas the paper plugs into Eq. 2:
//
//   m = -t * ln(FPRate) / ln^2(2)        (bits)
//   k =  (m / t) * ln(2)                 (hash functions)
//
// Hashes come from Kirsch–Mitzenmacher double hashing over one Murmur
// evaluation ("a linear combination of hash functions ... to automatically
// adjust the number of hash functions according to the false positive rate
// required by the user").
//
// The filter owns no storage: BloomWords runs the lock-free operations over
// m/64 atomic words that live elsewhere — in the program, one slot's stretch
// of the read signature's slab. All mutation is fetch_or / store on whole
// words (Section IV.D.3: "C++11 lock-free primitives for implementing
// signature memory arrays"), so concurrent inserts never lose bits.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "support/hash.hpp"

namespace commscope::support {

/// Sizing parameters derived from (capacity, fp_rate).
struct BloomParams {
  std::size_t bits = 0;    ///< m, rounded up to a multiple of 64
  std::uint32_t hashes = 0;  ///< k, at least 1
};

/// Computes bloom parameters for `capacity` expected insertions at target
/// false-positive rate `fp_rate` (clamped to a sane range).
[[nodiscard]] inline BloomParams bloom_params(std::size_t capacity,
                                              double fp_rate) noexcept {
  if (capacity == 0) capacity = 1;
  if (fp_rate <= 0.0) fp_rate = 1e-9;
  if (fp_rate >= 1.0) fp_rate = 0.5;
  const double ln2 = std::log(2.0);
  const double m =
      -static_cast<double>(capacity) * std::log(fp_rate) / (ln2 * ln2);
  const double k = m / static_cast<double>(capacity) * ln2;
  BloomParams p;
  p.bits = ((static_cast<std::size_t>(std::ceil(m)) + 63) / 64) * 64;
  p.hashes = static_cast<std::uint32_t>(std::lround(std::max(1.0, k)));
  return p;
}

/// A bloom filter's operations over its backing words: `params.bits / 64`
/// atomic words owned elsewhere (the read signature's slab). A BloomWords is
/// a reference: copying it copies the pointer, not the bits.
class BloomWords {
 public:
  using Word = std::atomic<std::uint64_t>;

  BloomWords(Word* words, BloomParams params) noexcept
      : words_(words), params_(params) {}

  /// Inserts `key`; returns true if the key was (apparently) already present,
  /// i.e. every probed bit was already set. Per-key insert/contains hash on
  /// every call; they serve keys outside a precomputed probe set (the read
  /// signature's out-of-range tids) and are the reference insert_probes /
  /// contains_probes are checked against.
  bool insert(std::uint64_t key) const noexcept {
    const HashPair hp = split_hash(murmur_mix64(key));
    bool all_set = true;
    for (std::uint32_t i = 0; i < params_.hashes; ++i) {
      const std::size_t bit = km_hash(hp.h1, hp.h2, i) % params_.bits;
      const std::uint64_t mask = 1ULL << (bit & 63U);
      all_set &= (words_[bit >> 6].fetch_or(mask, std::memory_order_acq_rel) &
                  mask) != 0;
    }
    return all_set;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    const HashPair hp = split_hash(murmur_mix64(key));
    for (std::uint32_t i = 0; i < params_.hashes; ++i) {
      const std::size_t bit = km_hash(hp.h1, hp.h2, i) % params_.bits;
      if ((words_[bit >> 6].load(std::memory_order_acquire) &
           (1ULL << (bit & 63U))) == 0) {
        return false;
      }
    }
    return true;
  }

  // --- precomputed probe sets ----------------------------------------------
  //
  // The read signature's key universe is thread ids, so the k probe
  // positions for a given key are a pure function of (params, key) shared by
  // every filter built from the same params. Callers that probe the same key
  // millions of times (Algorithm 1 inserts the reading tid on EVERY read)
  // precompute the positions once, grouped by backing word, and each
  // insert/query becomes one RMW (or load) per touched word instead of k
  // hash evaluations and k RMWs.

  /// One precomputed probe group: the OR of every probed bit that falls in
  /// backing word `word`.
  struct Probe {
    std::uint32_t word;
    std::uint64_t mask;
  };

  /// Maximum probe groups a key can produce (distinct words <= hash count).
  static constexpr std::uint32_t kMaxProbes = 32;

  /// Writes the probe set insert(key)/contains(key) would touch under
  /// `params` — identical double-hashing positions, grouped by word — and
  /// returns the group count. `out` must hold at least
  /// min(params.hashes, kMaxProbes) entries.
  static std::uint32_t probes_for(BloomParams params, std::uint64_t key,
                                  Probe* out) noexcept {
    const HashPair hp = split_hash(murmur_mix64(key));
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < params.hashes && n < kMaxProbes; ++i) {
      const std::size_t bit = km_hash(hp.h1, hp.h2, i) % params.bits;
      const auto w = static_cast<std::uint32_t>(bit >> 6);
      const std::uint64_t mask = 1ULL << (bit & 63U);
      std::uint32_t j = 0;
      while (j < n && out[j].word != w) ++j;
      if (j == n) out[n++] = Probe{w, 0};
      out[j].mask |= mask;
    }
    return n;
  }

  /// insert(key) with the probe set precomputed. Bit-identical end state and
  /// the same "already present" answer: per-bit insert() reports true iff
  /// every DISTINCT probed position was set before this call (a position
  /// probed twice reads its own first set, which probes_for() deduplicates
  /// by construction), which is exactly (old & mask) == mask per word.
  bool insert_probes(const Probe* probes, std::uint32_t n) const noexcept {
    bool all_set = true;
    for (std::uint32_t i = 0; i < n; ++i) {
      Word& w = words_[probes[i].word];
      // Under the first-touch rule most reads are repeats whose bits are all
      // set already; a plain load then costs a fraction of the RMW and the
      // end state (and return value) is unchanged.
      if ((w.load(std::memory_order_acquire) & probes[i].mask) ==
          probes[i].mask) {
        continue;
      }
      all_set &= (w.fetch_or(probes[i].mask, std::memory_order_acq_rel) &
                  probes[i].mask) == probes[i].mask;
    }
    return all_set;
  }

  /// contains(key) with the probe set precomputed.
  [[nodiscard]] bool contains_probes(const Probe* probes,
                                     std::uint32_t n) const noexcept {
    for (std::uint32_t i = 0; i < n; ++i) {
      if ((words_[probes[i].word].load(std::memory_order_acquire) &
           probes[i].mask) != probes[i].mask) {
        return false;
      }
    }
    return true;
  }

  // --- gathered probes -----------------------------------------------------
  //
  // The batched drain splits contains_probes into a load pass and a judge
  // pass, so the judgement is a pure function of a snapshot taken before the
  // slot's first mutation: gather_probe_words(), then words_cover() on the
  // snapshot. words_cover(p, gathered, n) == contains_probes(p, n) against
  // the state the gather observed.

  /// Loads (acquire) the backing word of each probe group into `out`.
  void gather_probe_words(const Probe* probes, std::uint32_t n,
                          std::uint64_t* out) const noexcept {
    for (std::uint32_t i = 0; i < n; ++i) {
      out[i] = words_[probes[i].word].load(std::memory_order_acquire);
    }
  }

  /// contains_probes over a gathered snapshot: true iff every probe group's
  /// mask is fully covered by its snapshot word.
  [[nodiscard]] static bool words_cover(const Probe* probes,
                                        const std::uint64_t* words,
                                        std::uint32_t n) noexcept {
    bool all = true;
    for (std::uint32_t i = 0; i < n; ++i) {
      all &= (words[i] & probes[i].mask) == probes[i].mask;
    }
    return all;
  }

  /// Zeroes every word, skipping words already zero: the end state of a
  /// plain store loop without dirtying the cache line of an empty filter,
  /// which is what most clears in a write-dominated region find. Not atomic
  /// as a whole: a reader bit set concurrently with a writer's clear may
  /// land before or after the store, and the profiler tolerates both
  /// serializations, exactly as the paper's shared-signature design does.
  void clear() const noexcept {
    for (std::size_t w = 0; w < params_.bits / 64; ++w) {
      if (words_[w].load(std::memory_order_relaxed) != 0) {
        words_[w].store(0, std::memory_order_release);
      }
    }
  }

  /// True if any bit is set.
  [[nodiscard]] bool any() const noexcept {
    for (std::size_t w = 0; w < params_.bits / 64; ++w) {
      if (words_[w].load(std::memory_order_relaxed) != 0) return true;
    }
    return false;
  }

 private:
  Word* words_;
  BloomParams params_;
};

}  // namespace commscope::support
