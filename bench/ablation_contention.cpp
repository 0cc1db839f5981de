// Concurrency-design ablation (google-benchmark).
//
// Section IV.D.3: "the signature memory is completely shared with all of the
// target program's threads. Hence, there is a high risk of contention
// between threads. We have used C++11 lock-free primitives for implementing
// signature memory arrays to ensure preventing data race among threads."
// This bench contrasts the lock-free detector against a globally-locked
// variant of the same algorithm under multi-threaded access, and the
// lock-free communication matrix against a mutex-guarded one.
#include <benchmark/benchmark.h>

#include <mutex>
#include <vector>

#include "core/comm_matrix.hpp"
#include "core/raw_detector.hpp"

namespace cc = commscope::core;

namespace {

std::vector<std::uintptr_t> make_addresses(std::size_t n) {
  std::vector<std::uintptr_t> addrs(n);
  std::uint64_t state = 777;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    addrs[i] = 0x20000000 + (state >> 30) % (n * 2) * 8;
  }
  return addrs;
}

/// Globally-locked strawman: the same Algorithm 1 behind one mutex.
class LockedDetector {
 public:
  LockedDetector() : det_(1 << 18, 32, 0.001) {}
  std::optional<int> on_read(std::uintptr_t addr, int tid) {
    std::lock_guard lock(mu_);
    return det_.on_read(addr, tid);
  }
  void on_write(std::uintptr_t addr, int tid) {
    std::lock_guard lock(mu_);
    det_.on_write(addr, tid);
  }

 private:
  std::mutex mu_;
  cc::AsymmetricDetector det_;
};

template <typename Detector>
void run_contended(benchmark::State& state, Detector& det) {
  const auto addrs = make_addresses(2048);
  const int tid = static_cast<int>(state.thread_index());
  for (auto _ : state) {
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      if (i % 4 == 0) {
        det.on_write(addrs[i], tid);
      } else {
        benchmark::DoNotOptimize(det.on_read(addrs[i], tid));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(addrs.size()));
}

void BM_LockFreeDetector(benchmark::State& state) {
  // Function-local static: initialized once under the magic-static lock and
  // shared by all benchmark threads (never torn down — teardown would race
  // with threads still draining their iteration loops).
  static cc::AsymmetricDetector det(1 << 18, 32, 0.001);
  run_contended(state, det);
}

void BM_GloballyLockedDetector(benchmark::State& state) {
  static LockedDetector det;
  run_contended(state, det);
}

// The matrix adds the way the profiler books dependencies: the calling
// thread is the consumer, the producers vary, and the dimension is the
// 4-thread one, where a row-major matrix packed every consumer's cells
// into the same two cache lines.
constexpr int kMatrixThreads = 4;

void BM_LockFreeCommMatrix(benchmark::State& state) {
  static cc::CommMatrix m(kMatrixThreads);
  const int tid = static_cast<int>(state.thread_index());
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) m.add(i % kMatrixThreads, tid, 8);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}

struct LockedMatrix {
  explicit LockedMatrix(int n) : matrix(n) {}
  std::mutex mu;
  cc::Matrix matrix;
  void add(int p, int c, std::uint64_t b) {
    std::lock_guard lock(mu);
    matrix.at(p, c) += b;
  }
};

void BM_MutexCommMatrix(benchmark::State& state) {
  static LockedMatrix m(kMatrixThreads);
  const int tid = static_cast<int>(state.thread_index());
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) m.add(i % kMatrixThreads, tid, 8);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}

}  // namespace

BENCHMARK(BM_LockFreeDetector)->Threads(1)->Threads(4)->UseRealTime();
BENCHMARK(BM_GloballyLockedDetector)->Threads(1)->Threads(4)->UseRealTime();
BENCHMARK(BM_LockFreeCommMatrix)->Threads(1)->Threads(4)->UseRealTime();
BENCHMARK(BM_MutexCommMatrix)->Threads(1)->Threads(4)->UseRealTime();
