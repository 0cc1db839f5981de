// Shared types of the CommScope end-to-end benchmark binary.
//
// The binary runs one workload per process (see main.cpp for the command
// line) and reports either the gated end-to-end metrics (untraced run) or
// the per-layer metrics (traced run). Everything here is benchmark-owned:
// the library is only reached through its public entry points.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/flight_recorder.hpp"
#include "core/profiler.hpp"
#include "instrument/sink.hpp"
#include "telemetry/metrics.hpp"

namespace commbench {

/// Command-line configuration of one run.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the benchmark's own tests: dev-scale apps, one pass.
  bool smoke = false;
  /// Seeded corruption for the benchmark's own tests: "cell" flips one cell
  /// of a reference matrix, "truncate" halves the final checkpoint before it
  /// is loaded, "lost-ack" cuts one shipped frame so its first attempt is
  /// never acknowledged. Empty in every measured run.
  std::string inject;
  int threads = 4;       ///< nproc: worker threads and serve connections
  std::string work_dir;  ///< scratch files of this run (removed at exit)
  std::string out_dir;   ///< traced-run artifacts
};

/// One measured value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Name and unit of every gated end-to-end metric, in output order. Every
/// workload reports each of them (BENCHMARK.json lists the same set).
[[nodiscard]] const std::vector<std::pair<const char*, const char*>>&
end_to_end_catalog();
/// Name and unit of every per-layer metric of the traced run, in output
/// order. A layer a workload does not reach reports 0.
[[nodiscard]] const std::vector<std::pair<const char*, const char*>>&
per_layer_catalog();

/// What a workload hands back to main: operation counts, failures, the
/// metric values and the human-readable report lines.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> values;  ///< by catalog name
  std::vector<std::string> report;       ///< human lines printed before JSON

  /// Counts one operation; a failed one is counted with its reason.
  void attempt(bool ok, const std::string& reason) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 32) failures.push_back(reason);
    }
  }
  void put(const std::string& name, double value) { values[name] = value; }
  void say(std::string line) { report.push_back(std::move(line)); }
};

/// Seconds on the monotonic clock since the process started.
[[nodiscard]] double now_s() noexcept;
[[nodiscard]] std::uint64_t now_ns() noexcept;

// --- statistics ---------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// The smallest value (0 when empty). Legs and rounds report their best
/// repetition: on a shared host they run at two speeds that alternate every
/// few seconds (neighbours' load roughly halves the instrumented legs'
/// speed), so a median lands between the modes, while load only ever adds
/// time.
[[nodiscard]] double best(const std::vector<double>& v);
/// Linear-interpolated quantile q in [0, 1] of `v` (0 when empty).
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// The highest of p99/p95/p90/p75/p50 that leaves at least ten samples above
/// it (the benchmark's tail-latency rule), with its name and value.
struct Tail {
  const char* name = "p50";
  double value = 0.0;
};
[[nodiscard]] Tail tail_of(const std::vector<double>& v);

/// `v` with `prec` significant digits, for the human report.
[[nodiscard]] std::string fmt(double v, int prec = 4);

/// Value of counter `name` in a metrics snapshot (0 when absent).
[[nodiscard]] double snapshot_value(
    const std::vector<commscope::telemetry::MetricSnapshot>& all,
    const char* name);
/// Quantile q of histogram `name` in a metrics snapshot (0 when absent).
[[nodiscard]] double snapshot_quantile(
    const std::vector<commscope::telemetry::MetricSnapshot>& all,
    const char* name, double q);

// --- traced run: spans and the timing decorator ---------------------------

/// In-memory span log of the traced run. Spans nest per thread; each keeps
/// its parent's id, and the whole log is written once at exit in the Chrome
/// trace event format.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int id = 0;
    int parent = -1;
    int tid = 0;
  };

  [[nodiscard]] int begin(const char* name);
  void end(int id);

  /// Total milliseconds of every span named `name`.
  [[nodiscard]] double total_ms(const std::string& name) const;
  /// A copy of every span recorded so far.
  [[nodiscard]] std::vector<Span> spans() const;
  /// Appends spans recorded by another process (an app's child), renumbered
  /// after the spans already here; its root spans get `parent`.
  void import(const std::vector<Span>& spans, int parent);
  /// Writes {"traceEvents": [...]} (complete events, microseconds).
  void write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when `log` is null (every untraced run).
class Scope {
 public:
  Scope(SpanLog* log, const char* name) : log_(log) {
    if (log_ != nullptr) id_ = log_->begin(name);
  }
  ~Scope() {
    if (log_ != nullptr) log_->end(id_);
  }
  [[nodiscard]] int id() const noexcept { return id_; }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_ = -1;
};

/// Sampled call latencies per sink entry point, one lane per worker tid so
/// the hot path never locks.
struct SinkSamples {
  explicit SinkSamples(int threads)
      : access(static_cast<std::size_t>(threads)),
        loop(static_cast<std::size_t>(threads)),
        drain(static_cast<std::size_t>(threads)) {}
  std::vector<std::vector<double>> access;
  std::vector<std::vector<double>> loop;
  std::vector<std::vector<double>> drain;

  [[nodiscard]] static std::vector<double> flat(
      const std::vector<std::vector<double>>& lanes);
};

/// The traced run's timing decorator: wraps the outermost sink (Profiler or
/// GuardedSink) and timestamps one call in N into `samples`. A call that
/// fills the profiler's micro-batch (and therefore drains it) is also
/// recorded as a drain sample. Samples include one steady_clock read (tens
/// of ns), so calls cheaper than that read as the clock's cost. Untraced
/// runs never construct one.
class TimingSink final : public commscope::instrument::AccessSink {
 public:
  static constexpr std::uint32_t kAccessEvery = 64;
  static constexpr std::uint32_t kLoopEvery = 4;
  static constexpr std::uint32_t kDrainEvery = 4;

  TimingSink(commscope::instrument::AccessSink& inner,
             const commscope::core::Profiler& profiler, SinkSamples& samples);

  void on_thread_begin(int tid) override { inner_->on_thread_begin(tid); }
  void on_loop_enter(int tid, commscope::instrument::LoopId id) override;
  void on_loop_exit(int tid) override;
  void on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                 commscope::instrument::AccessKind kind) override;
  void finalize() override { inner_->finalize(); }
  void on_drain(int tid) override;

 private:
  struct alignas(64) Tick {
    std::uint32_t access = 0;
    std::uint32_t loop = 0;
    std::uint32_t drain = 0;
  };

  commscope::instrument::AccessSink* inner_;
  const commscope::core::Profiler* profiler_;
  SinkSamples* samples_;
  std::uint32_t batch_;
  std::unique_ptr<Tick[]> ticks_;
};

// --- workloads ------------------------------------------------------------------

/// Runs `body` in a forked child process and returns the bytes it returned.
/// The caller holds no threads while it forks. Throws std::runtime_error
/// with the message of an exception out of `body`, or when the child ends
/// abnormally.
[[nodiscard]] std::string in_child(const std::function<std::string()>& body);

/// The epochs the live-features flight recorder seals on every app of that
/// mix but raytrace and water_spat (whose streams depend on the schedule),
/// by app name. Each app's captured streams are replayed in the accuracy
/// leg's fixed order with perf off, so the same build always returns the
/// same epochs; throws when an app's streams differ between captures.
[[nodiscard]] std::vector<std::pair<std::string, commscope::core::EpochTimeline>>
recorder_timelines(const Config& cfg);

/// live-plain, live-features, live-checkpoint.
[[nodiscard]] Outcome run_live(const Config& cfg, SpanLog* spans);
/// serve-ship.
[[nodiscard]] Outcome run_serve(const Config& cfg, SpanLog* spans);

// --- host and build fingerprint ---------------------------------------------------

/// One-line JSON object describing the host and the build.
[[nodiscard]] std::string fingerprint_json(const Config& cfg);
/// Empty when the build may be timed; otherwise why it may not (a
/// non-Release or sanitizer build).
[[nodiscard]] std::string untimeable_build_reason();

}  // namespace commbench
