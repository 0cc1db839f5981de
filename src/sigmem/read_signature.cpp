#include "sigmem/read_signature.hpp"

#include <algorithm>
#include <stdexcept>

namespace commscope::sigmem {

static_assert(support::BloomWords::Word::is_always_lock_free &&
                  sizeof(support::BloomWords::Word) == sizeof(std::uint64_t),
              "slab words must be plain 64-bit words whose zero is all-zero");

namespace {
/// Validates the arguments, then sizes the slab: n filters of bits/64 words.
std::size_t slab_bytes(std::size_t slots, int max_threads,
                       support::BloomParams params) {
  if (slots == 0) throw std::invalid_argument("ReadSignature needs >= 1 slot");
  if (max_threads < 1) throw std::invalid_argument("max_threads must be >= 1");
  return slots * (params.bits / 64) * sizeof(support::BloomWords::Word);
}
}  // namespace

ReadSignature::ReadSignature(std::size_t slots, int max_threads, double fp_rate,
                             support::MemoryTracker* tracker)
    : slots_(slots),
      max_threads_(max_threads),
      fp_rate_(fp_rate),
      bloom_params_(
          support::bloom_params(static_cast<std::size_t>(max_threads), fp_rate)),
      slot_words_(bloom_params_.bits / 64),
      slab_(slab_bytes(slots, max_threads, bloom_params_)),
      words_(slab_.as<support::BloomWords::Word>()),
      tracker_(tracker) {
  probe_stride_ =
      std::min(bloom_params_.hashes, support::BloomWords::kMaxProbes);
  probes_.resize(static_cast<std::size_t>(max_threads_) * probe_stride_);
  probe_counts_.resize(static_cast<std::size_t>(max_threads_));
  for (int t = 0; t < max_threads_; ++t) {
    probe_counts_[static_cast<std::size_t>(t)] = support::BloomWords::probes_for(
        bloom_params_, static_cast<std::uint64_t>(t),
        &probes_[static_cast<std::size_t>(t) * probe_stride_]);
  }
  if (tracker_ != nullptr) tracker_->add(byte_size());
}

ReadSignature::~ReadSignature() {
  if (tracker_ != nullptr) tracker_->sub(byte_size());
}

bool ReadSignature::insert(std::size_t slot, int tid) noexcept {
  if (tid < 0) [[unlikely]] {
    // Reporting "already present" keeps Algorithm 1 from manufacturing a
    // dependence out of an unattributable reader.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (tid >= max_threads_) [[unlikely]] {
    overflow_inserts_.fetch_add(1, std::memory_order_relaxed);
    return filter(slot).insert(static_cast<std::uint64_t>(tid));
  }
  // In-range tids (every insert Algorithm 1 issues) use the probe set
  // precomputed in the constructor: same bit positions, one RMW per word.
  const ProbeSet ps = probes_of(tid);
  return filter(slot).insert_probes(ps.probes, ps.count);
}

bool ReadSignature::contains(std::size_t slot, int tid) const noexcept {
  if (tid < 0 || tid >= max_threads_) [[unlikely]] {
    return filter(slot).contains(static_cast<std::uint64_t>(tid));
  }
  const ProbeSet ps = probes_of(tid);
  return filter(slot).contains_probes(ps.probes, ps.count);
}

}  // namespace commscope::sigmem
