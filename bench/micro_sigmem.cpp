// Signature-memory microbenches and design ablations (google-benchmark).
//
// Measures the per-access cost of the asymmetric-signature detector against
// the exact (perfect-signature) backend — the accuracy/overhead trade-off at
// the heart of the paper — and the cost split between read and write paths,
// plus the read signature's insert cost across bloom hash counts.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/profiler.hpp"
#include "core/raw_detector.hpp"
#include "instrument/sink.hpp"
#include "resilience/guarded_sink.hpp"
#include "resilience/resource_guard.hpp"
#include "sigmem/exact_signature.hpp"
#include "sigmem/read_signature.hpp"

namespace cc = commscope::core;
namespace ci = commscope::instrument;
namespace cr = commscope::resilience;
namespace sg = commscope::sigmem;

namespace {

std::vector<std::uintptr_t> make_addresses(std::size_t n) {
  std::vector<std::uintptr_t> addrs(n);
  std::uint64_t state = 12345;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    addrs[i] = 0x10000000 + (state >> 30) % (n * 4) * 8;
  }
  return addrs;
}

void BM_AsymmetricDetector_ReadPath(benchmark::State& state) {
  cc::AsymmetricDetector det(1 << 20, 32, 0.001);
  const auto addrs = make_addresses(4096);
  for (const std::uintptr_t a : addrs) det.on_write(a, 0);
  int tid = 1;
  for (auto _ : state) {
    for (const std::uintptr_t a : addrs) {
      benchmark::DoNotOptimize(det.on_read(a, tid));
    }
    tid = (tid % 31) + 1;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(addrs.size()));
}

void BM_AsymmetricDetector_WritePath(benchmark::State& state) {
  cc::AsymmetricDetector det(1 << 20, 32, 0.001);
  const auto addrs = make_addresses(4096);
  for (auto _ : state) {
    for (const std::uintptr_t a : addrs) det.on_write(a, 3);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(addrs.size()));
}

void BM_ExactSignature_ReadPath(benchmark::State& state) {
  sg::ExactSignature det(32);
  const auto addrs = make_addresses(4096);
  for (const std::uintptr_t a : addrs) det.on_write(a, 0);
  int tid = 1;
  for (auto _ : state) {
    for (const std::uintptr_t a : addrs) {
      benchmark::DoNotOptimize(det.on_read(a, tid));
    }
    tid = (tid % 31) + 1;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(addrs.size()));
}

void BM_ExactSignature_WritePath(benchmark::State& state) {
  sg::ExactSignature det(32);
  const auto addrs = make_addresses(4096);
  for (auto _ : state) {
    for (const std::uintptr_t a : addrs) det.on_write(a, 3);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(addrs.size()));
}

// --- resilience-layer overhead ---------------------------------------------
//
// What a GuardedSink whose budgets never fire ("idle guard") costs over
// feeding the profiler directly. Compare items/s of the three variants
// below.

// Defaults on purpose: the overhead ratio is only meaningful against the
// profiler configuration `commscope run` actually deploys (32 threads,
// 2^20-slot signature).
cc::ProfilerOptions bench_profiler_options() { return cc::ProfilerOptions{}; }

void drive_sink(benchmark::State& state, cc::Profiler& prof,
                ci::AccessSink& sink) {
  prof.on_thread_begin(0);
  prof.on_thread_begin(1);
  const auto addrs = make_addresses(4096);
  for (auto _ : state) {
    for (const std::uintptr_t a : addrs) {
      sink.on_access(0, a, 8, ci::AccessKind::kWrite);
      sink.on_access(1, a, 8, ci::AccessKind::kRead);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(addrs.size()) * 2);
}

/// Baseline: events fed straight into the profiler, no resilience layer.
void BM_ProfilerDirect(benchmark::State& state) {
  cc::Profiler prof(bench_profiler_options());
  drive_sink(state, prof, prof);
}

/// GuardedSink with nothing configured: the gate stays closed and the
/// wrapper is a pass-through (one branch past the reentrancy guard).
void BM_GuardedSink_Passthrough(benchmark::State& state) {
  cc::Profiler prof(bench_profiler_options());
  cr::GuardedSink sink(prof, nullptr, {});
  drive_sink(state, prof, sink);
}

/// GuardedSink with a generous memory budget that never trips: the gated
/// path every budget, checkpoint cadence or fault injector runs — two
/// safepoint slot stores and one acquire load of the pause word, then one
/// event-clock tick (a thread-local increment and a compare with the next
/// due mark; one relaxed fetch_add per 64 accesses). The budget itself is
/// peeked only at the check-interval marks.
void BM_GuardedSink_IdleGuard(benchmark::State& state) {
  cc::Profiler prof(bench_profiler_options());
  cr::GuardOptions g;
  g.mem_budget_bytes = 1ull << 40;  // never exceeded
  g.check_interval = 1024;
  cr::ResourceGuard guard(g, prof);
  cr::GuardedSink sink(prof, &guard, {});
  drive_sink(state, prof, sink);
}

/// Read-signature insert cost vs configured FP rate (more probe words per
/// op): ReadSignature::insert(slot, tid) with the probe sets the constructor
/// precomputes, the path Algorithm 1 runs on every read.
void BM_ReadSignatureInsert(benchmark::State& state) {
  const double fp = 1.0 / static_cast<double>(state.range(0));
  sg::ReadSignature rs(1, 32, fp);
  int tid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.insert(0, tid));
    tid = (tid + 1) % 32;
  }
  state.counters["hashes"] = rs.bloom_params().hashes;
  state.counters["bits"] = static_cast<double>(rs.bloom_params().bits);
}

}  // namespace

BENCHMARK(BM_AsymmetricDetector_ReadPath);
BENCHMARK(BM_AsymmetricDetector_WritePath);
BENCHMARK(BM_ExactSignature_ReadPath);
BENCHMARK(BM_ExactSignature_WritePath);
BENCHMARK(BM_ProfilerDirect);
BENCHMARK(BM_GuardedSink_Passthrough);
BENCHMARK(BM_GuardedSink_IdleGuard);
BENCHMARK(BM_ReadSignatureInsert)->Arg(10)->Arg(100)->Arg(1000)->Arg(100000);
