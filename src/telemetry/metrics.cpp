#include "telemetry/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace commscope::telemetry {

const char* to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "hist";
  }
  return "?";
}

std::uint64_t histogram_quantile(const MetricSnapshot& m, double q) noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t c : m.buckets) total += c;
  if (total == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  // 1-based rank of the order statistic the quantile names (ceil, so q=0.5
  // over 3 samples is the 2nd and q=1.0 is always the max).
  std::uint64_t rank = static_cast<std::uint64_t>(
      q * static_cast<double>(total) + 0.999999);
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t before = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    const std::uint64_t c = m.buckets[static_cast<std::size_t>(b)];
    if (c == 0 || before + c < rank) {
      before += c;
      continue;
    }
    if (b == 0) return 0;  // the exact-zeros bucket
    // Interpolate linearly across the bucket's [2^(b-1), 2^b - 1] span by
    // the rank's position inside it.
    const double lo = static_cast<double>(histogram_bucket_floor(b));
    const double hi = b >= 64 ? 18446744073709551615.0
                              : static_cast<double>(
                                    histogram_bucket_floor(b + 1)) -
                                    1.0;
    const double frac = c <= 1 ? 0.0
                               : static_cast<double>(rank - before - 1) /
                                     static_cast<double>(c - 1);
    return static_cast<std::uint64_t>(lo + (hi - lo) * frac);
  }
  return 0;
}

void refresh_quantiles(MetricSnapshot& m) noexcept {
  if (m.kind != MetricKind::kHistogram) return;
  m.p50 = histogram_quantile(m, 0.50);
  m.p95 = histogram_quantile(m, 0.95);
  m.p99 = histogram_quantile(m, 0.99);
}

namespace {

constexpr int kMaxMetrics = 192;
constexpr std::size_t kMaxNameLen = 63;

// One registry slot. Fixed-size name storage (no heap, no destructor) so the
// whole table is trivially destructible and safe to touch from thread_local
// teardown and atexit hooks. `ready` is the publication flag: a reader that
// sees it with acquire also sees the copied name and kind.
struct Entry {
  char name[kMaxNameLen + 1] = {};
  MetricKind kind = MetricKind::kCounter;
  std::atomic<bool> ready{false};
  Counter counter;
  Gauge gauge;
  Histogram histogram;
};

struct RegistryState {
  Entry entries[kMaxMetrics];
  std::atomic<int> size{0};
  std::atomic_flag register_lock = ATOMIC_FLAG_INIT;
  // Shared spill target when the table is full; kMaxMetrics is sized far
  // above in-tree usage, so hitting this means a registration leak — the
  // `telemetry.registry_full` counter is the provenance.
  Entry overflow;
};

RegistryState& reg() noexcept {
  static RegistryState s;
  return s;
}

Entry* find(const char* name, MetricKind kind) noexcept {
  RegistryState& s = reg();
  const int n = s.size.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    Entry& e = s.entries[i];
    if (e.ready.load(std::memory_order_acquire) && e.kind == kind &&
        std::strcmp(e.name, name) == 0) {
      return &e;
    }
  }
  return nullptr;
}

Entry& find_or_register(const char* name, MetricKind kind) noexcept {
  if (Entry* e = find(name, kind)) return *e;
  RegistryState& s = reg();
  while (s.register_lock.test_and_set(std::memory_order_acquire)) {
  }
  Entry* e = find(name, kind);  // lost a registration race?
  if (e == nullptr) {
    const int idx = s.size.load(std::memory_order_relaxed);
    if (idx >= kMaxMetrics) {
      s.register_lock.clear(std::memory_order_release);
      counter("telemetry.registry_full").add(1);
      return s.overflow;
    }
    e = &s.entries[idx];
    std::strncpy(e->name, name, kMaxNameLen);
    e->name[kMaxNameLen] = '\0';
    e->kind = kind;
    e->ready.store(true, std::memory_order_release);
    s.size.store(idx + 1, std::memory_order_release);
  }
  s.register_lock.clear(std::memory_order_release);
  return *e;
}

}  // namespace

std::size_t Counter::shard_index() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine & static_cast<std::uint32_t>(kShards - 1);
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.v.load(std::memory_order_relaxed);
    if (total >= kSaturation) return kSaturation;
  }
  return total;
}

void Counter::reset() noexcept {
  for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  saturated_.store(false, std::memory_order_relaxed);
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

Counter& counter(const char* name) noexcept {
  return find_or_register(name, MetricKind::kCounter).counter;
}

Gauge& gauge(const char* name) noexcept {
  return find_or_register(name, MetricKind::kGauge).gauge;
}

Histogram& histogram(const char* name) noexcept {
  return find_or_register(name, MetricKind::kHistogram).histogram;
}

std::uint64_t mono_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::vector<MetricSnapshot> snapshot_all() {
  std::vector<MetricSnapshot> out;
  RegistryState& s = reg();
  const int n = s.size.load(std::memory_order_acquire);
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Entry& e = s.entries[i];
    if (!e.ready.load(std::memory_order_acquire)) continue;
    MetricSnapshot m;
    m.name = e.name;
    m.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        m.value = e.counter.value();
        m.saturated = e.counter.saturated();
        break;
      case MetricKind::kGauge:
        m.value = e.gauge.value();
        break;
      case MetricKind::kHistogram:
        m.count = e.histogram.count();
        m.sum = e.histogram.sum();
        for (int b = 0; b < kHistogramBuckets; ++b) {
          m.buckets[static_cast<std::size_t>(b)] = e.histogram.bucket(b);
        }
        refresh_quantiles(m);
        break;
    }
    out.push_back(std::move(m));
  }
  return out;
}

void reset_all() noexcept {
  RegistryState& s = reg();
  const int n = s.size.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    Entry& e = s.entries[i];
    e.counter.reset();
    e.gauge.reset();
    e.histogram.reset();
  }
}

// --- text format v1 ----------------------------------------------------------

namespace {
constexpr const char* kHeader = "# commscope-metrics v1";
}

void write_metrics(std::ostream& os, const std::vector<MetricSnapshot>& ms) {
  os << kHeader << "\n";
  for (const MetricSnapshot& m : ms) {
    switch (m.kind) {
      case MetricKind::kCounter:
        os << "counter " << m.name << ' ' << m.value
           << " saturated=" << (m.saturated ? 1 : 0) << "\n";
        break;
      case MetricKind::kGauge:
        os << "gauge " << m.name << ' ' << m.value << "\n";
        break;
      case MetricKind::kHistogram: {
        // Quantiles are always re-derived from the buckets here, so a
        // written line is internally consistent whatever the caller did to
        // the snapshot fields.
        MetricSnapshot qm = m;
        refresh_quantiles(qm);
        os << "hist " << m.name << " count=" << m.count << " sum=" << m.sum
           << " p50=" << qm.p50 << " p95=" << qm.p95 << " p99=" << qm.p99
           << " buckets=";
        bool first = true;
        for (int b = 0; b < kHistogramBuckets; ++b) {
          const std::uint64_t c = m.buckets[static_cast<std::size_t>(b)];
          if (c == 0) continue;
          if (!first) os << ',';
          os << b << ':' << c;
          first = false;
        }
        os << "\n";
        break;
      }
    }
  }
}

void write_metrics(std::ostream& os) { write_metrics(os, snapshot_all()); }

namespace {

[[noreturn]] void bad_line(const std::string& line) {
  throw std::invalid_argument("metrics: malformed line '" + line + "'");
}

std::uint64_t parse_u64(const std::string& tok, const std::string& line) {
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(tok, &pos);
    if (pos != tok.size()) bad_line(line);
    return v;
  } catch (const std::invalid_argument&) {
    bad_line(line);
  } catch (const std::out_of_range&) {
    bad_line(line);
  }
}

/// "key=value" field with a required key; returns the value text.
std::string keyed(const std::string& tok, const char* key,
                  const std::string& line) {
  const std::string prefix = std::string(key) + "=";
  if (tok.rfind(prefix, 0) != 0) bad_line(line);
  return tok.substr(prefix.size());
}

}  // namespace

std::vector<MetricSnapshot> read_metrics(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    throw std::invalid_argument(
        "metrics: missing '# commscope-metrics v1' header");
  }
  std::vector<MetricSnapshot> out;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind_tok, name;
    if (!(ls >> kind_tok >> name)) bad_line(line);
    MetricSnapshot m;
    m.name = name;
    if (kind_tok == "counter") {
      std::string value_tok, sat_tok;
      if (!(ls >> value_tok >> sat_tok)) bad_line(line);
      m.kind = MetricKind::kCounter;
      m.value = parse_u64(value_tok, line);
      m.saturated = keyed(sat_tok, "saturated", line) == "1";
    } else if (kind_tok == "gauge") {
      std::string value_tok;
      if (!(ls >> value_tok)) bad_line(line);
      m.kind = MetricKind::kGauge;
      m.value = parse_u64(value_tok, line);
    } else if (kind_tok == "hist") {
      std::string count_tok, sum_tok, buckets_tok;
      if (!(ls >> count_tok >> sum_tok >> buckets_tok)) bad_line(line);
      m.kind = MetricKind::kHistogram;
      m.count = parse_u64(keyed(count_tok, "count", line), line);
      m.sum = parse_u64(keyed(sum_tok, "sum", line), line);
      // Optional derived-quantile fields (absent in pre-quantile snapshots).
      while (buckets_tok.rfind("p", 0) == 0) {
        if (buckets_tok.rfind("p50=", 0) == 0) {
          m.p50 = parse_u64(buckets_tok.substr(4), line);
        } else if (buckets_tok.rfind("p95=", 0) == 0) {
          m.p95 = parse_u64(buckets_tok.substr(4), line);
        } else if (buckets_tok.rfind("p99=", 0) == 0) {
          m.p99 = parse_u64(buckets_tok.substr(4), line);
        } else {
          bad_line(line);
        }
        if (!(ls >> buckets_tok)) bad_line(line);
      }
      std::string list = keyed(buckets_tok, "buckets", line);
      std::size_t pos = 0;
      while (pos < list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string pair =
            list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        const std::size_t colon = pair.find(':');
        if (colon == std::string::npos) bad_line(line);
        const std::uint64_t b = parse_u64(pair.substr(0, colon), line);
        if (b >= static_cast<std::uint64_t>(kHistogramBuckets)) bad_line(line);
        m.buckets[static_cast<std::size_t>(b)] =
            parse_u64(pair.substr(colon + 1), line);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else {
      bad_line(line);
    }
    out.push_back(std::move(m));
  }
  return out;
}

namespace {

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) noexcept {
  const std::uint64_t s = a + b;
  return s >= kSaturation ? kSaturation : s;
}

}  // namespace

void merge_metrics(std::vector<MetricSnapshot>& into,
                   const std::vector<MetricSnapshot>& from) {
  for (const MetricSnapshot& m : from) {
    auto it = std::find_if(into.begin(), into.end(),
                           [&](const MetricSnapshot& x) {
                             return x.kind == m.kind && x.name == m.name;
                           });
    if (it == into.end()) {
      into.push_back(m);
      continue;
    }
    switch (m.kind) {
      case MetricKind::kCounter:
        it->saturated = it->saturated || m.saturated ||
                        it->value + m.value >= kSaturation;
        it->value = saturating_add(it->value, m.value);
        break;
      case MetricKind::kGauge:
        it->value = std::max(it->value, m.value);
        break;
      case MetricKind::kHistogram:
        it->count = saturating_add(it->count, m.count);
        it->sum = saturating_add(it->sum, m.sum);
        for (std::size_t b = 0; b < it->buckets.size(); ++b) {
          it->buckets[b] = saturating_add(it->buckets[b], m.buckets[b]);
        }
        // Quantiles do not sum; re-derive them from the merged buckets.
        refresh_quantiles(*it);
        break;
    }
  }
}

void print_metrics(std::ostream& os, const std::vector<MetricSnapshot>& ms) {
  std::size_t width = 4;
  for (const MetricSnapshot& m : ms) width = std::max(width, m.name.size());
  for (const MetricSnapshot& m : ms) {
    os << m.name << std::string(width - m.name.size() + 2, ' ');
    switch (m.kind) {
      case MetricKind::kCounter:
        os << m.value << (m.saturated ? "  [saturated: lower bound]" : "");
        break;
      case MetricKind::kGauge:
        os << m.value << "  (gauge)";
        break;
      case MetricKind::kHistogram: {
        os << "count=" << m.count << " sum=" << m.sum;
        if (m.count > 0) os << " mean=" << m.sum / m.count;
        if (m.count > 0) {
          MetricSnapshot qm = m;
          refresh_quantiles(qm);
          os << " p50=" << qm.p50 << " p95=" << qm.p95 << " p99=" << qm.p99;
        }
        // Render the occupied log2 range compactly: floor of the first and
        // last non-empty buckets.
        int lo = -1, hi = -1;
        for (int b = 0; b < kHistogramBuckets; ++b) {
          if (m.buckets[static_cast<std::size_t>(b)] != 0) {
            if (lo < 0) lo = b;
            hi = b;
          }
        }
        if (lo >= 0) {
          os << " range=[" << histogram_bucket_floor(lo) << ", ";
          if (hi + 1 >= kHistogramBuckets) {
            os << "2^64)";
          } else {
            os << histogram_bucket_floor(hi + 1) << ")";
          }
        }
        break;
      }
    }
    os << "\n";
  }
}

// --- Prometheus exposition --------------------------------------------------

std::string prometheus_name(const std::string& name) {
  std::string out = "commscope_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void write_prometheus(std::ostream& os,
                      const std::vector<MetricSnapshot>& ms) {
  for (const MetricSnapshot& m : ms) {
    const std::string name = prometheus_name(m.name);
    switch (m.kind) {
      case MetricKind::kCounter:
        os << "# TYPE " << name << "_total counter\n"
           << name << "_total " << m.value << "\n";
        break;
      case MetricKind::kGauge:
        os << "# TYPE " << name << " gauge\n" << name << ' ' << m.value
           << "\n";
        break;
      case MetricKind::kHistogram: {
        os << "# TYPE " << name << " histogram\n";
        int hi = -1;
        for (int b = 0; b < kHistogramBuckets; ++b) {
          if (m.buckets[static_cast<std::size_t>(b)] != 0) hi = b;
        }
        std::uint64_t cum = 0;
        for (int b = 0; b <= hi; ++b) {
          cum += m.buckets[static_cast<std::size_t>(b)];
          // Bucket b covers [2^(b-1), 2^b), so its exact inclusive upper
          // bound is 2^b - 1; the zero bucket's is 0. Bucket 64's span ends
          // at the u64 maximum, which only +Inf can name.
          if (b >= 64) break;
          const std::uint64_t le =
              b == 0 ? 0 : (histogram_bucket_floor(b + 1) - 1);
          os << name << "_bucket{le=\"" << le << "\"} " << cum << "\n";
        }
        os << name << "_bucket{le=\"+Inf\"} " << m.count << "\n"
           << name << "_sum " << m.sum << "\n"
           << name << "_count " << m.count << "\n";
        break;
      }
    }
  }
}

void write_prometheus(std::ostream& os) { write_prometheus(os, snapshot_all()); }

}  // namespace commscope::telemetry
