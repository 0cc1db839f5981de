#include "baseline/ipm_profiler.hpp"

#include <algorithm>
#include <stdexcept>

namespace commscope::baseline {

namespace {
constexpr std::uint64_t kAddrMask = (1ULL << 48) - 1;
constexpr unsigned kTidShift = 48;
constexpr unsigned kKindShift = 54;
constexpr unsigned kSizeShift = 55;
}  // namespace

IpmProfiler::IpmProfiler(int max_threads)
    : max_threads_(max_threads),
      logs_(std::make_unique<ThreadLog[]>(
          static_cast<std::size_t>(max_threads))),
      matrix_(max_threads) {
  if (max_threads < 1 || max_threads > 64) {
    throw std::invalid_argument("IpmProfiler supports 1..64 threads");
  }
}

void IpmProfiler::on_thread_begin(int) {}
void IpmProfiler::on_loop_enter(int, instrument::LoopId) {}
void IpmProfiler::on_loop_exit(int) {}

void IpmProfiler::on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                            instrument::AccessKind kind) {
  if (static_cast<unsigned>(tid) >= static_cast<unsigned>(max_threads_)) {
    return;
  }
  Record r;
  r.packed = (static_cast<std::uint64_t>(addr) & kAddrMask) |
             (static_cast<std::uint64_t>(tid) << kTidShift) |
             (static_cast<std::uint64_t>(kind == instrument::AccessKind::kWrite)
              << kKindShift) |
             (static_cast<std::uint64_t>(std::min<std::uint32_t>(size, 511))
              << kSizeShift);
  r.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  logs_[static_cast<std::size_t>(tid)].records.push_back(r);
}

void IpmProfiler::finalize() {
  if (finalized_) return;
  std::vector<Record> merged;
  merged.reserve(static_cast<std::size_t>(record_count()));
  for (int t = 0; t < max_threads_; ++t) {
    const auto& log = logs_[static_cast<std::size_t>(t)].records;
    merged.insert(merged.end(), log.begin(), log.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const Record& a, const Record& b) { return a.seq < b.seq; });

  sigmem::ExactSignature sig(max_threads_);
  for (const Record& r : merged) {
    const auto addr = static_cast<std::uintptr_t>(r.packed & kAddrMask);
    const int tid = static_cast<int>((r.packed >> kTidShift) & 0x3f);
    const bool is_write = ((r.packed >> kKindShift) & 1) != 0;
    const auto size = static_cast<std::uint32_t>(r.packed >> kSizeShift);
    if (is_write) {
      sig.on_write(addr, tid);
    } else if (const std::optional<int> producer = sig.on_read(addr, tid)) {
      matrix_.at(*producer, tid) += size;
    }
  }
  finalized_ = true;
}

core::Matrix IpmProfiler::communication_matrix() const {
  if (!finalized_) {
    throw std::logic_error(
        "IpmProfiler: matrix unavailable before finalize() — post-mortem only");
  }
  return matrix_;
}

std::uint64_t IpmProfiler::memory_bytes() const {
  return record_count() * sizeof(Record);
}

std::uint64_t IpmProfiler::record_count() const {
  std::uint64_t n = 0;
  for (int t = 0; t < max_threads_; ++t) {
    n += logs_[static_cast<std::size_t>(t)].records.size();
  }
  return n;
}

}  // namespace commscope::baseline
