#include "baseline/shadow_profiler.hpp"

#include <stdexcept>

namespace commscope::baseline {

ShadowProfiler::ShadowProfiler(int max_threads, ShadowPersona persona)
    : max_threads_(max_threads), persona_(persona), matrix_(max_threads) {
  if (max_threads < 1 || max_threads > 64) {
    throw std::invalid_argument("ShadowProfiler supports 1..64 threads");
  }
}

void ShadowProfiler::on_thread_begin(int) {}
void ShadowProfiler::on_loop_enter(int, instrument::LoopId) {}
void ShadowProfiler::on_loop_exit(int) {}

ShadowProfiler::Cell& ShadowProfiler::cell_for(std::uintptr_t addr) {
  const std::uintptr_t page = addr & ~static_cast<std::uintptr_t>(kPageBytes - 1);
  {
    std::shared_lock lock(pages_mu_);
    auto it = pages_.find(page);
    if (it != pages_.end()) {
      return it->second->cells[(addr - page) / 8];
    }
  }
  std::unique_lock lock(pages_mu_);
  auto [it, inserted] = pages_.try_emplace(page);
  if (inserted) it->second = std::make_unique<Page>();
  return it->second->cells[(addr - page) / 8];
}

void ShadowProfiler::on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                               instrument::AccessKind kind) {
  if (static_cast<unsigned>(tid) >= static_cast<unsigned>(max_threads_)) {
    return;
  }
  Cell& c = cell_for(addr);
  if (kind == instrument::AccessKind::kWrite) {
    c.readers.store(0, std::memory_order_relaxed);
    c.writer.store(tid, std::memory_order_release);
    return;
  }
  const std::uint64_t bit = 1ULL << static_cast<unsigned>(tid);
  const std::int32_t writer = c.writer.load(std::memory_order_acquire);
  const std::uint64_t prev = c.readers.fetch_or(bit, std::memory_order_acq_rel);
  if (writer >= 0 && (prev & bit) == 0 && writer != tid) {
    matrix_.add(writer, tid, size);
  }
}

std::uint64_t ShadowProfiler::memory_bytes() const {
  return static_cast<std::uint64_t>(
      static_cast<double>(pages_touched() * kPageBytes) *
      persona_.shadow_bytes_per_app_byte);
}

std::uint64_t ShadowProfiler::cell_bytes() const {
  return pages_touched() * sizeof(Page);
}

std::size_t ShadowProfiler::pages_touched() const {
  std::shared_lock lock(pages_mu_);
  return pages_.size();
}

}  // namespace commscope::baseline
