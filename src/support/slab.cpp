#include "support/slab.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>

namespace commscope::support {

namespace {
constexpr std::size_t kHugePage = std::size_t{2} << 20;
}  // namespace

Slab::Slab(std::size_t bytes) {
  if (bytes == 0) return;
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  mapped_ = (bytes + page - 1) / page * page;
  // Over-map by one huge page so a 2 MiB-aligned start exists inside the
  // reservation, then hand back the unaligned head and the unused tail.
  const std::size_t span = mapped_ + kHugePage;
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t start = (base + kHugePage - 1) & ~(kHugePage - 1);
  const std::uintptr_t end = start + mapped_;
  if (start > base) ::munmap(raw, start - base);
  if (base + span > end) {
    ::munmap(reinterpret_cast<void*>(end), base + span - end);
  }
  data_ = reinterpret_cast<void*>(start);
  // Advisory: a kernel without transparent huge pages refuses it, and the
  // slab then works on ordinary pages.
  if (mapped_ >= kHugePage) (void)::madvise(data_, mapped_, MADV_HUGEPAGE);
}

Slab::~Slab() {
  if (data_ != nullptr) ::munmap(data_, mapped_);
}

}  // namespace commscope::support
