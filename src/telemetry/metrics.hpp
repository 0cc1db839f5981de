// Lock-free telemetry metrics registry — the profiler observing itself.
//
// The paper's evaluation (Fig. 4 slowdown, Fig. 5 memory) hinges on knowing
// what the profiler costs; a measurement instrument whose own behaviour is
// invisible is not trustworthy. This registry gives every runtime layer a
// uniform place to account for itself: counters (per-thread sharded,
// saturating at the same 2^62 clamp as the communication counters, with a
// `saturated` provenance flag instead of silent wraparound), gauges
// (last-value / high-water), and log2-bucketed histograms — all registered
// by static name and aggregated on demand.
//
// Design constraints, in order:
//   * The update path is lock-free and allocation-free: a counter add is one
//     relaxed fetch_add on a cache-line-padded per-thread shard; gauges and
//     histogram records are single relaxed atomic ops. Safe from any thread,
//     including inside the instrumentation runtime (ReentrancyGuard held).
//   * Registration is rare (once per static name) and may take a tiny
//     spinlock; call sites cache the returned reference.
//   * All storage is static and trivially destructible, so metrics can be
//     touched from thread_local destructors and atexit hooks at any point of
//     process teardown.
//
// Aggregated snapshots serialize to a line-oriented text format (v1) that
// `commscope metrics` can read back, merge across runs (counters and
// histograms sum, gauges take the max) and pretty-print.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace commscope::telemetry {

/// Counter clamp, matching core::AtomicCell's saturation point: large enough
/// that reaching it means pathology, small enough that sums of shards cannot
/// overflow 2^64.
inline constexpr std::uint64_t kSaturation = 1ULL << 62;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(MetricKind kind) noexcept;

/// Histogram bucket count: bucket 0 holds exact zeros, bucket b >= 1 holds
/// values in [2^(b-1), 2^b).
inline constexpr int kHistogramBuckets = 65;

/// One aggregated metric value, as captured by snapshot_all() or parsed back
/// from the text format. Counters/gauges use `value`; histograms use
/// `count`/`sum`/`buckets`.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;
  bool saturated = false;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  /// Derived quantile estimates (see histogram_quantile). Recomputed from
  /// `buckets` by snapshot_all/write/merge; carried in the text format so
  /// scrapes are self-describing without the reader re-deriving them.
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
};

/// Lower inclusive bound of histogram bucket `b` (0 for the zero bucket).
[[nodiscard]] constexpr std::uint64_t histogram_bucket_floor(int b) noexcept {
  return b <= 0 ? 0 : 1ULL << (b - 1);
}

/// Bucket index a value lands in: 0 for 0, else bit_width(v).
[[nodiscard]] constexpr int histogram_bucket_of(std::uint64_t v) noexcept {
  return v == 0 ? 0 : std::bit_width(v);
}

/// Estimated value at quantile `q` (clamped into [0, 1]) of a histogram
/// snapshot, linearly interpolated inside the log2 bucket the rank lands in
/// — so the estimate is exact at bucket boundaries and at worst off by half
/// a bucket width inside one. 0 for an empty histogram.
[[nodiscard]] std::uint64_t histogram_quantile(const MetricSnapshot& m,
                                               double q) noexcept;

/// Refreshes m.p50/p95/p99 from m.buckets (no-op for non-histograms).
void refresh_quantiles(MetricSnapshot& m) noexcept;

/// Monotonic event counter, sharded across cache-line-padded slots so
/// concurrent adds from different threads do not bounce one line. Saturates
/// at kSaturation with a provenance flag, mirroring the comm-counter policy:
/// a clamped count reads "at least this much", never a wrapped small number.
class Counter {
 public:
  static constexpr int kShards = 16;

  void add(std::uint64_t n = 1) noexcept {
    std::atomic<std::uint64_t>& shard = shards_[shard_index()].v;
    const std::uint64_t prev = shard.fetch_add(n, std::memory_order_relaxed);
    if (prev + n >= kSaturation) [[unlikely]] {
      shard.store(kSaturation, std::memory_order_relaxed);
      saturated_.store(true, std::memory_order_relaxed);
    }
  }

  /// Sum over all shards, clamped at kSaturation.
  [[nodiscard]] std::uint64_t value() const noexcept;
  [[nodiscard]] bool saturated() const noexcept {
    return saturated_.load(std::memory_order_relaxed);
  }

  /// Zeroes every shard (registry reset only; not linearizable vs adds).
  void reset() noexcept;

 private:
  /// Stable per-thread shard pick (round-robin at first use). A thread that
  /// exits leaves its partial sum in place; a successor hashing onto the
  /// same shard simply accumulates on top — aggregation stays exact under
  /// arbitrary churn because shards are summed, never reassigned.
  [[nodiscard]] static std::size_t shard_index() noexcept;

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  Shard shards_[kShards];
  std::atomic<bool> saturated_{false};
};

/// Last-value / high-water gauge.
class Gauge {
 public:
  void set(std::uint64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  /// Monotonic high-water update.
  void set_max(std::uint64_t v) noexcept {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Log2-bucketed histogram: one relaxed fetch_add per record. Bucket 0 is
/// exact zeros; bucket b >= 1 covers [2^(b-1), 2^b). Count and sum saturate
/// like counters.
class Histogram {
 public:
  void record(std::uint64_t v) noexcept {
    buckets_[static_cast<std::size_t>(histogram_bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(int b) const noexcept {
    return buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kHistogramBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Looks up (registering on first use) the metric named `name`. Names must
/// be NUL-terminated, at most 63 bytes, and should be static strings; the
/// registry copies them into fixed storage. The same (name, kind) pair
/// always returns the same instance; references stay valid for the process
/// lifetime. A full registry returns a shared overflow sink instead of
/// failing, and counts the spill in `telemetry.registry_full`.
[[nodiscard]] Counter& counter(const char* name) noexcept;
[[nodiscard]] Gauge& gauge(const char* name) noexcept;
[[nodiscard]] Histogram& histogram(const char* name) noexcept;

/// Monotonic microseconds: the clock the `*_us` latency histograms sample.
[[nodiscard]] std::uint64_t mono_us() noexcept;

/// Aggregated snapshot of every registered metric, in registration order.
[[nodiscard]] std::vector<MetricSnapshot> snapshot_all();

/// Zeroes every registered metric (test isolation; concurrent updates may
/// survive the sweep).
void reset_all() noexcept;

// --- snapshot text format v1 ------------------------------------------------
//
//   # commscope-metrics v1
//   counter sink.reentrant_drops 12 saturated=0
//   gauge profiler.mem_peak 1048576
//   hist checkpoint.write_us count=3 sum=712 p50=96 p95=231 p99=245 buckets=7:1,8:2
//
// The p50/p95/p99 fields are derived from the buckets at write time; the
// reader accepts hist lines with or without them (pre-quantile snapshots
// stay loadable) and recomputes them after any merge.

/// Writes the live registry (header + one line per metric).
void write_metrics(std::ostream& os);

/// Writes an explicit snapshot list (used by merge/aggregate paths).
void write_metrics(std::ostream& os, const std::vector<MetricSnapshot>& ms);

/// Parses the text format back. Throws std::invalid_argument on a malformed
/// header or line.
[[nodiscard]] std::vector<MetricSnapshot> read_metrics(std::istream& in);

/// Merges `from` into `into` by metric name: counters and histograms sum
/// (clamping at kSaturation), gauges keep the maximum, saturation flags OR.
void merge_metrics(std::vector<MetricSnapshot>& into,
                   const std::vector<MetricSnapshot>& from);

/// Human-readable table of a snapshot list (the `commscope metrics` view).
void print_metrics(std::ostream& os, const std::vector<MetricSnapshot>& ms);

// --- Prometheus exposition --------------------------------------------------
//
// The same snapshot rendered in the Prometheus text exposition format
// (v0.0.4) so standard scrapers can ingest the daemon's endpoint directly:
//
//   # TYPE commscope_serve_epochs_merged_total counter
//   commscope_serve_epochs_merged_total 42
//   # TYPE commscope_serve_wal_fsync_us histogram
//   commscope_serve_wal_fsync_us_bucket{le="0"} 1
//   commscope_serve_wal_fsync_us_bucket{le="127"} 3
//   commscope_serve_wal_fsync_us_bucket{le="+Inf"} 3
//   commscope_serve_wal_fsync_us_sum 712
//   commscope_serve_wal_fsync_us_count 3
//
// Names are prefixed `commscope_` and sanitized (every character outside
// [a-zA-Z0-9_] becomes '_'); counters gain the conventional `_total` suffix.
// Log2 bucket b holds [2^(b-1), 2^b), so its exact inclusive upper bound —
// the Prometheus `le` — is 2^b - 1 (0 for the zero bucket); cumulative
// counts are emitted for the occupied prefix plus the mandatory +Inf bound.

/// `commscope_`-prefixed sanitized metric name (without any kind suffix).
[[nodiscard]] std::string prometheus_name(const std::string& name);

/// Writes a snapshot list in Prometheus text exposition format.
void write_prometheus(std::ostream& os, const std::vector<MetricSnapshot>& ms);

/// Writes the live registry in Prometheus text exposition format.
void write_prometheus(std::ostream& os);

}  // namespace commscope::telemetry
