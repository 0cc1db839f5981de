#include "sigmem/write_signature.hpp"

#include <stdexcept>

namespace commscope::sigmem {

static_assert(std::atomic<std::uint32_t>::is_always_lock_free &&
                  sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t),
              "slab cells must be plain 32-bit words whose zero is all-zero");

namespace {
std::size_t slab_bytes(std::size_t slots) {
  if (slots == 0) throw std::invalid_argument("WriteSignature needs >= 1 slot");
  return slots * sizeof(std::uint32_t);
}
}  // namespace

WriteSignature::WriteSignature(std::size_t slots,
                               support::MemoryTracker* tracker)
    : slots_(slots),
      slab_(slab_bytes(slots)),
      cells_(slab_.as<std::atomic<std::uint32_t>>()),
      tracker_(tracker) {
  if (tracker_ != nullptr) tracker_->add(byte_size());
}

WriteSignature::~WriteSignature() {
  if (tracker_ != nullptr) tracker_->sub(byte_size());
}

std::size_t WriteSignature::occupancy() const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < slots_; ++i) {
    if (cells_[i].load(std::memory_order_relaxed) != 0) ++n;
  }
  return n;
}

}  // namespace commscope::sigmem
