// Batched-ingest throughput sweep (the tentpole's acceptance bench).
//
// Records the access streams of Figure 4 workload replicas once with
// instrument::TraceRecorder, then replays the identical event sequence
// through fresh profilers at a sweep of micro-batch sizes, measuring
// single-thread ingest throughput — the quantity the batch layer attacks:
// per-event dispatch, region lookup and, via hash-ahead prefetching of the
// signature memories, the random cache misses that dominate Figure 4's
// slowdown.
//
// Replay is deterministic: outside the timed region the recorded trace is
// reordered once by instrument::round_robin() into fixed 256-event turns per
// worker (each worker's events in program order), and the timed
// instrument::replay() drains at every tid switch, i.e. at every turn
// boundary. The global processing order is therefore identical at every
// batch size and the resulting matrices must be BIT-IDENTICAL to the
// unbatched run — the sweep verifies that for every batch size before
// reporting a single number.
//
// Output: a human table plus BENCH_ingest.json (events/sec per batch size,
// speedup vs unbatched). $COMMSCOPE_BENCH_OUT overrides the JSON path.
#include "bench_common.hpp"

#include <cstdint>
#include <vector>

#include "core/region_tree.hpp"
#include "instrument/trace.hpp"
#include "support/simd.hpp"

namespace cb = commscope::bench;
namespace cc = commscope::core;
namespace ci = commscope::instrument;
namespace cs = commscope::support;
namespace cw = commscope::workloads;

namespace {

/// Every observable output must match cell-for-cell and node-for-node.
bool identical(const cc::Profiler& a, const cc::Profiler& b) {
  if (!(a.communication_matrix() == b.communication_matrix())) return false;
  const auto as = a.stats();
  const auto bs = b.stats();
  if (as.accesses != bs.accesses || as.reads != bs.reads ||
      as.writes != bs.writes || as.dependencies != bs.dependencies) {
    return false;
  }
  const auto an = a.regions().preorder();
  const auto bn = b.regions().preorder();
  if (an.size() != bn.size()) return false;
  for (std::size_t i = 0; i < an.size(); ++i) {
    if (an[i]->loop() != bn[i]->loop()) return false;
    if (!(an[i]->direct() == bn[i]->direct())) return false;
  }
  return true;
}

}  // namespace

int main() {
  const cb::TraceOutFromEnv trace_out;
  const int threads = cs::env_threads(8);
  const cs::Scale scale = cs::env_scale();
  cb::banner("Batched ingest throughput (events/sec, batch-size sweep)",
             threads, scale);

  // Record once. A communication-heavy mix from the Figure 4 registry keeps
  // the replay representative of the workloads whose slowdown the batch
  // layer targets.
  const char* const names[] = {"fft", "ocean_cp", "water_nsq"};
  commscope::threading::ThreadTeam team(threads);
  ci::TraceRecorder recording;
  for (const char* name : names) {
    const cw::Workload* w = cw::find(name);
    if (w == nullptr || !w->run(scale, team, &recording).ok) {
      std::cerr << name << ": recording FAILED\n";
      return 1;
    }
  }
  const std::vector<ci::TraceEvent> trace = ci::round_robin(recording.events());
  const std::uint64_t events = trace.size();
  std::cout << "recorded " << events << " events from fft+ocean_cp+water_nsq\n"
            << "replay: single thread, round-robin chunks of 256, drain at "
               "every chunk boundary; hash kernel: "
            << cs::simd_level_name() << "\n\n";

  const std::uint32_t sweep[] = {0, 8, 16, 32, 64, 128, 256};
  constexpr std::size_t kConfigs = std::size(sweep);
  // Timesharing interference on the bench box arrives in multi-hundred-ms
  // bursts, so reps are interleaved round-robin across the sweep (a burst
  // lands on one rep of one config, not on every rep of one config) and the
  // per-config minimum — the interference-free estimate — is reported.
  // $COMMSCOPE_BENCH_REPS lowers/raises the rep count (CI runs fewer reps
  // to keep the perf gate fast; the committed baseline uses the default).
  const int reps = [] {
    const char* env = std::getenv("COMMSCOPE_BENCH_REPS");
    const int v = (env != nullptr && *env != '\0') ? std::atoi(env) : 0;
    return v > 0 ? v : 5;
  }();

  auto run_once = [&](std::uint32_t batch, double& seconds) {
    auto prof = cb::make_profiler(threads);
    cc::ProfilerOptions o = prof->options();
    o.batch_size = batch;
    prof = std::make_unique<cc::Profiler>(o);
    seconds = cb::time_seconds([&] { ci::replay(trace, *prof); });
    return prof;
  };

  double best[kConfigs];
  std::unique_ptr<cc::Profiler> result[kConfigs];
  for (std::size_t i = 0; i < kConfigs; ++i) best[i] = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < kConfigs; ++i) {
      double t = 0.0;
      auto p = run_once(sweep[i], t);
      if (t < best[i]) {
        best[i] = t;
      }
      if (rep == 0) result[i] = std::move(p);  // matrices are deterministic
    }
  }

  double base_rate = 0.0;
  cs::Table table(
      {"batch", "best (ms)", "events/sec", "speedup", "bit-identical"});
  struct Point {
    std::uint32_t batch;
    double seconds;
    double rate;
    double speedup;
    bool identical;
  };
  std::vector<Point> points;
  bool all_identical = true;

  for (std::size_t i = 0; i < kConfigs; ++i) {
    const std::uint32_t batch = sweep[i];
    const double rate = static_cast<double>(events) / best[i];
    if (batch == 0) base_rate = rate;
    const bool same = batch == 0 || identical(*result[0], *result[i]);
    all_identical = all_identical && same;
    const double speedup = rate / base_rate;
    points.push_back(Point{batch, best[i], rate, speedup, same});
    table.add_row({std::to_string(batch), cs::Table::num(best[i] * 1e3, 2),
                   cs::Table::num(rate / 1e6, 2) + "M",
                   cs::Table::num(speedup, 2) + "x", same ? "yes" : "NO"});
  }
  table.print(std::cout);

  double at64 = 0.0;
  for (const Point& p : points) {
    if (p.batch == 64) at64 = p.speedup;
  }
  std::cout << "\nspeedup at batch 64: " << cs::Table::num(at64, 2)
            << "x (target >= 2x); matrices "
            << (all_identical ? "bit-identical across the sweep"
                              : "DIVERGED — batching bug")
            << "\n";

  const char* out_env = std::getenv("COMMSCOPE_BENCH_OUT");
  const std::string out_path =
      (out_env != nullptr && *out_env != '\0') ? out_env : "BENCH_ingest.json";
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n  \"bench\": \"ingest_throughput\",\n"
      << "  \"workloads\": [\"fft\", \"ocean_cp\", \"water_nsq\"],\n"
      << "  \"scale\": \"" << cs::to_string(scale) << "\",\n"
      << "  \"recorded_threads\": " << threads << ",\n"
      << "  \"simd\": \"" << cs::simd_level_name() << "\",\n"
      << "  \"events\": " << events << ",\n"
      << "  \"all_bit_identical\": " << (all_identical ? "true" : "false")
      << ",\n  \"speedup_at_64\": " << at64 << ",\n  \"sweep\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    out << "    {\"batch\": " << p.batch << ", \"seconds\": " << p.seconds
        << ", \"events_per_sec\": " << p.rate << ", \"speedup\": " << p.speedup
        << ", \"bit_identical\": " << (p.identical ? "true" : "false") << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";

  return all_identical ? 0 : 1;
}
