// Telemetry layer tests: registry aggregation under thread churn, counter
// saturation, histogram bucket boundaries, metrics text round-trip + merge,
// trace JSON round-trip (validated with a minimal in-test JSON parser), and
// the disabled path's zero-allocation guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/trace_merge.hpp"

namespace ctl = commscope::telemetry;

// --- allocation counting -----------------------------------------------------
//
// Global operator new override, counting per-thread. gtest and the tests
// themselves allocate freely; assertions sample the counter immediately
// around the calls under test.
namespace {
thread_local std::uint64_t tl_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++tl_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++tl_allocs;
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

TEST(Counter, AggregatesExactlyAcrossThreadChurn) {
  ctl::Counter& c = ctl::counter("test.churn");
  const std::uint64_t base = c.value();
  // Waves of short-lived threads: slots/shard picks are recycled across
  // waves, which is exactly the double-count / lost-count hazard the sharded
  // design must survive.
  constexpr int kWaves = 8;
  constexpr int kThreadsPerWave = 24;  // > Counter::kShards
  constexpr int kAddsPerThread = 1000;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> pool;
    pool.reserve(kThreadsPerWave);
    for (int t = 0; t < kThreadsPerWave; ++t) {
      pool.emplace_back([&c] {
        for (int i = 0; i < kAddsPerThread; ++i) c.add(1);
      });
    }
    for (std::thread& th : pool) th.join();
  }
  EXPECT_EQ(c.value() - base,
            std::uint64_t{kWaves} * kThreadsPerWave * kAddsPerThread);
  EXPECT_FALSE(c.saturated());
}

TEST(Counter, SaturatesWithProvenanceInsteadOfWrapping) {
  ctl::Counter& c = ctl::counter("test.saturate");
  c.add(ctl::kSaturation - 10);
  EXPECT_FALSE(c.saturated());
  c.add(100);  // crosses the clamp
  EXPECT_EQ(c.value(), ctl::kSaturation);
  EXPECT_TRUE(c.saturated());
  c.add(1);  // further adds stay clamped
  EXPECT_EQ(c.value(), ctl::kSaturation);
}

TEST(Counter, SameNameSameInstanceDistinctKindsDistinct) {
  EXPECT_EQ(&ctl::counter("test.identity"), &ctl::counter("test.identity"));
  EXPECT_NE(static_cast<void*>(&ctl::counter("test.identity")),
            static_cast<void*>(&ctl::gauge("test.identity")));
}

TEST(Gauge, SetMaxIsMonotonic) {
  ctl::Gauge& g = ctl::gauge("test.highwater");
  g.set(0);
  g.set_max(10);
  g.set_max(7);
  EXPECT_EQ(g.value(), 10u);
  g.set_max(11);
  EXPECT_EQ(g.value(), 11u);
  g.set(3);  // plain set still overwrites
  EXPECT_EQ(g.value(), 3u);
}

TEST(Histogram, BucketBoundariesAreLog2) {
  // Bucket 0 = exact zeros; bucket b >= 1 = [2^(b-1), 2^b).
  EXPECT_EQ(ctl::histogram_bucket_of(0), 0);
  EXPECT_EQ(ctl::histogram_bucket_of(1), 1);
  EXPECT_EQ(ctl::histogram_bucket_of(2), 2);
  EXPECT_EQ(ctl::histogram_bucket_of(3), 2);
  EXPECT_EQ(ctl::histogram_bucket_of(4), 3);
  EXPECT_EQ(ctl::histogram_bucket_of(7), 3);
  EXPECT_EQ(ctl::histogram_bucket_of(8), 4);
  EXPECT_EQ(ctl::histogram_bucket_of(~0ULL), 64);
  for (int b = 1; b < ctl::kHistogramBuckets; ++b) {
    const std::uint64_t lo = ctl::histogram_bucket_floor(b);
    EXPECT_EQ(ctl::histogram_bucket_of(lo), b) << "floor of bucket " << b;
    EXPECT_EQ(ctl::histogram_bucket_of(lo - 1), b - 1 == 0 && lo == 1 ? 0
                                                                      : b - 1)
        << "below floor of bucket " << b;
  }

  ctl::Histogram& h = ctl::histogram("test.buckets");
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 1024);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(11), 1u);  // 1024 = 2^10 -> [2^10, 2^11)
}

TEST(Metrics, TextFormatRoundTripsAndMerges) {
  std::vector<ctl::MetricSnapshot> ms;
  {
    ctl::MetricSnapshot c;
    c.name = "rt.counter";
    c.kind = ctl::MetricKind::kCounter;
    c.value = 42;
    c.saturated = true;
    ms.push_back(c);
    ctl::MetricSnapshot g;
    g.name = "rt.gauge";
    g.kind = ctl::MetricKind::kGauge;
    g.value = 7;
    ms.push_back(g);
    ctl::MetricSnapshot h;
    h.name = "rt.hist";
    h.kind = ctl::MetricKind::kHistogram;
    h.count = 3;
    h.sum = 712;
    h.buckets[7] = 1;
    h.buckets[8] = 2;
    ms.push_back(h);
  }
  std::stringstream ss;
  ctl::write_metrics(ss, ms);
  const std::vector<ctl::MetricSnapshot> back = ctl::read_metrics(ss);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].name, "rt.counter");
  EXPECT_EQ(back[0].value, 42u);
  EXPECT_TRUE(back[0].saturated);
  EXPECT_EQ(back[1].kind, ctl::MetricKind::kGauge);
  EXPECT_EQ(back[1].value, 7u);
  EXPECT_EQ(back[2].count, 3u);
  EXPECT_EQ(back[2].sum, 712u);
  EXPECT_EQ(back[2].buckets[7], 1u);
  EXPECT_EQ(back[2].buckets[8], 2u);

  // Merge: counters/histograms sum, gauges take the max.
  std::vector<ctl::MetricSnapshot> into = ms;
  into[1].value = 3;  // lower gauge must lose to the incoming 7
  ctl::merge_metrics(into, back);
  EXPECT_EQ(into[0].value, 84u);
  EXPECT_EQ(into[1].value, 7u);
  EXPECT_EQ(into[2].count, 6u);
  EXPECT_EQ(into[2].buckets[8], 4u);

  std::stringstream bad("# commscope-metrics v1\ncounter oops notanumber\n");
  EXPECT_THROW((void)ctl::read_metrics(bad), std::invalid_argument);
}

TEST(Histogram, QuantileEstimatesAreExactAtBucketBoundaries) {
  ctl::MetricSnapshot m;
  m.kind = ctl::MetricKind::kHistogram;
  // Empty histogram: every quantile is 0.
  EXPECT_EQ(ctl::histogram_quantile(m, 0.5), 0u);

  // All-zero samples land in bucket 0 and stay 0 at every quantile.
  m.buckets[0] = 10;
  EXPECT_EQ(ctl::histogram_quantile(m, 0.99), 0u);
  m.buckets[0] = 0;

  // A single sample in bucket 7 ([64, 127]) sits at the bucket floor.
  m.buckets[7] = 1;
  EXPECT_EQ(ctl::histogram_quantile(m, 0.0), 64u);
  EXPECT_EQ(ctl::histogram_quantile(m, 1.0), 64u);

  // Two samples interpolate across the bucket span: rank 1 at the floor,
  // rank 2 at the inclusive ceiling.
  m.buckets[7] = 2;
  EXPECT_EQ(ctl::histogram_quantile(m, 0.5), 64u);
  EXPECT_EQ(ctl::histogram_quantile(m, 1.0), 127u);
  m.buckets[7] = 0;

  // Bimodal: 5 fast samples (bucket 1 = exactly 1) and 5 slow (bucket 10 =
  // [512, 1023]). The median stays fast; the tail quantiles see the slow
  // mode — the shape the stage histograms exist to expose.
  m.buckets[1] = 5;
  m.buckets[10] = 5;
  EXPECT_EQ(ctl::histogram_quantile(m, 0.50), 1u);
  EXPECT_EQ(ctl::histogram_quantile(m, 0.95), 1023u);
  EXPECT_EQ(ctl::histogram_quantile(m, 0.99), 1023u);
  // Out-of-range q clamps instead of misbehaving.
  EXPECT_EQ(ctl::histogram_quantile(m, -1.0), 1u);
  EXPECT_EQ(ctl::histogram_quantile(m, 2.0), 1023u);
}

TEST(Metrics, QuantilesSurviveTextRoundTripAndLegacyLinesStillParse) {
  ctl::MetricSnapshot h;
  h.name = "rt.q";
  h.kind = ctl::MetricKind::kHistogram;
  h.count = 4;
  h.sum = 4 + 7 + 32 + 63;
  h.buckets[3] = 2;  // [4, 7]
  h.buckets[6] = 2;  // [32, 63]
  ctl::refresh_quantiles(h);
  EXPECT_EQ(h.p50, 7u);
  EXPECT_EQ(h.p95, 63u);
  EXPECT_EQ(h.p99, 63u);

  std::stringstream ss;
  ctl::write_metrics(ss, {h});
  EXPECT_NE(ss.str().find("p50=7 p95=63 p99=63"), std::string::npos)
      << ss.str();
  const std::vector<ctl::MetricSnapshot> back = ctl::read_metrics(ss);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].p50, 7u);
  EXPECT_EQ(back[0].p95, 63u);
  EXPECT_EQ(back[0].p99, 63u);
  EXPECT_EQ(back[0].buckets[3], 2u);
  EXPECT_EQ(back[0].buckets[6], 2u);

  // Pre-quantile writers omitted the p-fields; the reader must still accept
  // their lines (and leaves the estimates at 0 rather than inventing them).
  std::stringstream legacy(
      "# commscope-metrics v1\nhist old.h count=3 sum=712 buckets=7:1,8:2\n");
  const std::vector<ctl::MetricSnapshot> old = ctl::read_metrics(legacy);
  ASSERT_EQ(old.size(), 1u);
  EXPECT_EQ(old[0].count, 3u);
  EXPECT_EQ(old[0].buckets[8], 2u);
  EXPECT_EQ(old[0].p50, 0u);

  // Merge re-derives the quantiles from the summed buckets instead of
  // summing the estimates.
  std::vector<ctl::MetricSnapshot> into = {h};
  ctl::merge_metrics(into, {h});
  EXPECT_EQ(into[0].count, 8u);
  EXPECT_EQ(into[0].p50, 7u);
  EXPECT_EQ(into[0].p95, 63u);
}

// --- minimal JSON parser (validation only) ----------------------------------
//
// Enough JSON to structurally validate a Chrome trace: objects, arrays,
// strings with escapes, numbers, true/false/null. Parses or dies; the test
// then probes a few semantic fields by substring.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& s) : s_(s) {}
  bool parse() { return value() && (ws(), pos_ == s_.size()); }

 private:
  bool value() {
    ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (peek() != ':') return false;
      ++pos_;
      if (!value()) return false;
      ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      if (!value()) return false;
      ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || std::isxdigit(
                    static_cast<unsigned char>(s_[pos_])) == 0) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  void ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  [[nodiscard]] char peek() const {
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(Trace, ChromeJsonRoundTripsThroughParser) {
  ctl::Tracer::enable();
  ctl::Tracer::begin("phase \"quoted\"", ctl::SpanCat::kRun, 2);
  ctl::Tracer::loop_begin(0, 7);
  ctl::Tracer::instant("degradation", ctl::SpanCat::kDegrade);
  ctl::Tracer::loop_end(0);
  ctl::Tracer::end(ctl::SpanCat::kRun, 2);
  {
    ctl::ScopedSpan span("checkpoint", ctl::SpanCat::kCheckpoint);
  }
  ctl::Tracer::disable();
  EXPECT_GE(ctl::Tracer::captured(), 6u);

  std::stringstream ss;
  ctl::Tracer::write_chrome_trace(
      ss, [](std::uint32_t id) { return "loop<" + std::to_string(id) + ">"; });
  const std::string json = ss.str();
  JsonCursor cursor(json);
  EXPECT_TRUE(cursor.parse()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("loop<7>"), std::string::npos) << "resolver not applied";
  EXPECT_NE(json.find("phase \\\"quoted\\\""), std::string::npos)
      << "name not escaped";
  EXPECT_NE(json.find("\"cat\":\"degrade\""), std::string::npos);

  // The text export carries the same events.
  std::stringstream txt;
  ctl::Tracer::write_text(txt);
  EXPECT_NE(txt.str().find("commscope-trace v1"), std::string::npos);
  EXPECT_NE(txt.str().find("degradation"), std::string::npos);
}

TEST(Trace, ContextAndValueExportAsChromeArgs) {
  ctl::Tracer::enable();
  ctl::Tracer::instant("ctx.instant", ctl::SpanCat::kServe, -1, 0x2aULL,
                       7ULL);
  ctl::Tracer::complete("ctx.span", ctl::SpanCat::kServe, -1, 100, 50,
                        0xdeadbeefULL, 0);
  ctl::Tracer::instant("ctx.none", ctl::SpanCat::kServe);
  ctl::Tracer::disable();

  std::stringstream ss;
  ctl::Tracer::write_chrome_trace(ss);
  const std::string json = ss.str();
  JsonCursor cursor(json);
  EXPECT_TRUE(cursor.parse()) << json;
  // ctx is a hex STRING (64-bit ids do not survive JSON doubles); arg is a
  // plain number; zero fields are omitted entirely.
  EXPECT_NE(json.find("\"args\":{\"ctx\":\"2a\",\"v\":7}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\":{\"ctx\":\"deadbeef\"}"), std::string::npos);
  const std::size_t none_at = json.find("ctx.none");
  ASSERT_NE(none_at, std::string::npos);
  const std::size_t line_end = json.find('\n', none_at);
  EXPECT_EQ(json.substr(none_at, line_end - none_at).find("args"),
            std::string::npos)
      << "ctx-less event grew an args block";

  std::stringstream txt;
  ctl::Tracer::write_text(txt);
  EXPECT_NE(txt.str().find("ctx.instant ctx=2a v=7"), std::string::npos)
      << txt.str();
}

TEST(Trace, DisabledRecordPathAllocatesNothing) {
  ctl::Tracer::disable();
  ctl::Counter& c = ctl::counter("test.noalloc");  // registered up front
  ctl::Gauge& g = ctl::gauge("test.noalloc");
  ctl::Histogram& h = ctl::histogram("test.noalloc");
  const std::uint64_t before = tl_allocs;
  for (int i = 0; i < 1000; ++i) {
    ctl::Tracer::begin("x", ctl::SpanCat::kRun);
    ctl::Tracer::loop_begin(0, 1);
    ctl::Tracer::loop_end(0);
    ctl::Tracer::end(ctl::SpanCat::kRun);
    ctl::ScopedSpan span("y", ctl::SpanCat::kFlush);
    c.add(1);
    g.set_max(static_cast<std::uint64_t>(i));
    h.record(static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(tl_allocs, before) << "telemetry hot path allocated";
}

TEST(Trace, EnabledRecordPathAllocatesNothing) {
  ctl::Tracer::enable();
  const std::uint64_t before = tl_allocs;
  for (int i = 0; i < 1000; ++i) {
    ctl::Tracer::loop_begin(0, 1);
    ctl::Tracer::loop_end(0);
  }
  EXPECT_EQ(tl_allocs, before) << "enabled ring write allocated";
  ctl::Tracer::disable();
}

TEST(Trace, RingOverwriteIsCountedNotUnbounded) {
  ctl::Tracer::enable();
  // One thread, one ring: push far past the ring capacity.
  for (int i = 0; i < 10000; ++i) {
    ctl::Tracer::instant("spin", ctl::SpanCat::kRun);
  }
  ctl::Tracer::disable();
  EXPECT_LE(ctl::Tracer::captured(), 4096u);  // bounded by one ring (2048)
  EXPECT_GT(ctl::Tracer::dropped(), 0u);
}

// --- Prometheus exposition conformance --------------------------------------
//
// A line-level validator for the text exposition format (v0.0.4): every
// sample belongs to a family declared by a preceding `# TYPE` line, names
// stay in the legal charset, histogram buckets are cumulative with strictly
// increasing `le` bounds, and `+Inf` equals `_count`.
struct PromFamily {
  std::string type;
  std::vector<std::pair<double, std::uint64_t>> buckets;  ///< (le, cum)
  bool has_inf = false;
  std::uint64_t inf_cum = 0;
  bool has_sum = false;
  bool has_count = false;
  std::uint64_t count = 0;
};

bool prom_name_ok(const std::string& n) {
  if (n.empty()) return false;
  if (std::isalpha(static_cast<unsigned char>(n[0])) == 0 && n[0] != '_' &&
      n[0] != ':') {
    return false;
  }
  for (const char c : n) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' &&
        c != ':') {
      return false;
    }
  }
  return true;
}

bool prom_u64(const std::string& s, std::uint64_t& out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && p == s.data() + s.size();
}

/// Returns "" when `text` is conformant, else a diagnostic naming the
/// offending line or family.
std::string prometheus_lint(const std::string& text) {
  std::map<std::string, PromFamily> fams;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash;
      std::string kw;
      std::string fam;
      std::string type;
      ls >> hash >> kw >> fam >> type;
      if (kw != "TYPE") continue;  // HELP and free comments are fine
      if (!prom_name_ok(fam)) return "bad family name: " + line;
      if (type != "counter" && type != "gauge" && type != "histogram") {
        return "bad type: " + line;
      }
      if (fams.count(fam) != 0) return "duplicate TYPE: " + line;
      fams[fam].type = type;
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) return "no value: " + line;
    std::uint64_t value = 0;
    if (!prom_u64(line.substr(sp + 1), value)) return "bad value: " + line;
    const std::size_t brace = line.find('{');
    const std::string name =
        line.substr(0, std::min(brace, line.find(' ')));
    if (!prom_name_ok(name)) return "bad metric name: " + line;
    std::string le;
    if (brace != std::string::npos) {
      const std::size_t q1 = line.find('"', brace);
      const std::size_t q2 =
          q1 == std::string::npos ? q1 : line.find('"', q1 + 1);
      if (line.compare(brace, 5, "{le=\"") != 0 ||
          q2 == std::string::npos) {
        return "unexpected labels: " + line;
      }
      le = line.substr(q1 + 1, q2 - q1 - 1);
    }
    // Resolve the sample to its declared family via the suffix convention.
    auto strip = [&name](const char* suffix) -> std::string {
      const std::string suf(suffix);
      if (name.size() <= suf.size() ||
          name.compare(name.size() - suf.size(), suf.size(), suf) != 0) {
        return {};
      }
      return name.substr(0, name.size() - suf.size());
    };
    std::string fam;
    if (!le.empty()) {
      fam = strip("_bucket");
      if (fam.empty() || fams.count(fam) == 0 ||
          fams[fam].type != "histogram") {
        return "bucket without histogram TYPE: " + line;
      }
      PromFamily& f = fams[fam];
      if (le == "+Inf") {
        f.has_inf = true;
        f.inf_cum = value;
      } else {
        double bound = 0;
        const auto [p, ec] =
            std::from_chars(le.data(), le.data() + le.size(), bound);
        if (ec != std::errc{} || p != le.data() + le.size()) {
          return "bad le: " + line;
        }
        if (f.has_inf) return "+Inf before finite bucket: " + line;
        if (!f.buckets.empty()) {
          if (bound <= f.buckets.back().first) {
            return "le not increasing: " + line;
          }
          if (value < f.buckets.back().second) {
            return "buckets not cumulative: " + line;
          }
        }
        f.buckets.emplace_back(bound, value);
      }
      continue;
    }
    std::string base;
    if (!(base = strip("_total")).empty() && fams.count(base) != 0 &&
        fams[base].type == "counter") {
      continue;
    }
    if (!(base = strip("_sum")).empty() && fams.count(base) != 0 &&
        fams[base].type == "histogram") {
      fams[base].has_sum = true;
      continue;
    }
    if (!(base = strip("_count")).empty() && fams.count(base) != 0 &&
        fams[base].type == "histogram") {
      fams[base].has_count = true;
      fams[base].count = value;
      continue;
    }
    // Gauges and counters are declared under the sample's exact name (the
    // counter family already carries its _total suffix in the TYPE line).
    if (fams.count(name) != 0 && fams[name].type != "histogram") continue;
    return "sample with no matching TYPE: " + line;
  }
  for (const auto& [fam, f] : fams) {
    if (f.type != "histogram") continue;
    if (!f.has_inf || !f.has_sum || !f.has_count) {
      return fam + ": histogram missing +Inf/_sum/_count";
    }
    if (f.inf_cum != f.count) return fam + ": +Inf != _count";
    if (!f.buckets.empty() && f.buckets.back().second > f.count) {
      return fam + ": cumulative buckets exceed _count";
    }
  }
  return {};
}

TEST(Metrics, PrometheusExpositionIsConformant) {
  ctl::MetricSnapshot c;
  c.name = "serve.frames.ok";
  c.kind = ctl::MetricKind::kCounter;
  c.value = 3;
  ctl::MetricSnapshot g;
  g.name = "serve.mem.bytes";
  g.kind = ctl::MetricKind::kGauge;
  g.value = 77;
  ctl::MetricSnapshot h;
  h.name = "rt.hi-st";  // exercises name sanitization
  h.kind = ctl::MetricKind::kHistogram;
  h.count = 4;
  h.sum = 1000;
  h.buckets[0] = 1;
  h.buckets[3] = 2;
  h.buckets[64] = 1;  // overflow bucket: only +Inf can name its bound

  std::stringstream ss;
  ctl::write_prometheus(ss, {c, g, h});
  const std::string text = ss.str();
  EXPECT_EQ(prometheus_lint(text), "") << text;
  EXPECT_NE(text.find("# TYPE commscope_serve_frames_ok_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("commscope_serve_frames_ok_total 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE commscope_serve_mem_bytes gauge"),
            std::string::npos);
  EXPECT_NE(text.find("commscope_rt_hi_st_bucket{le=\"0\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("commscope_rt_hi_st_bucket{le=\"7\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("commscope_rt_hi_st_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("commscope_rt_hi_st_sum 1000"), std::string::npos);
  // The overflow sample has no finite bound — it must appear only in +Inf.
  EXPECT_EQ(text.find("le=\"18446744073709551615\""), std::string::npos);

  // The live registry (whatever prior tests left in it) must lint too.
  std::stringstream live;
  ctl::write_prometheus(live);
  EXPECT_EQ(prometheus_lint(live.str()), "")
      << live.str().substr(0, 2000);
}

// --- cross-process trace stitching ------------------------------------------

std::string write_temp_trace(const char* name, const std::string& body) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << body;
  return path;
}

TEST(TraceMerge, PairsContextsAndShiftsClientClocks) {
  // Daemon trace: the reference timeline. Its serve.hello instant carries
  // the client's handshake clock sample (args.v, ns) at its own trace time.
  const std::string daemon = write_temp_trace(
      "tm_daemon.json",
      "{\"traceEvents\":[\n"
      "{\"pid\":0,\"tid\":0,\"ph\":\"i\",\"ts\":5000.0,\"s\":\"t\","
      "\"name\":\"serve.hello\",\"cat\":\"serve\","
      "\"args\":{\"ctx\":\"abc\",\"v\":2000000}},\n"
      "{\"pid\":0,\"tid\":0,\"ph\":\"X\",\"ts\":5100.0,\"dur\":40.0,"
      "\"name\":\"serve.merge\",\"cat\":\"serve\","
      "\"args\":{\"ctx\":\"abc\",\"v\":3}}\n"
      "],\"displayTimeUnit\":\"ms\"}\n");
  // Client trace: ship.hello at local ts 2000us, clock sample 2000000ns.
  // offset = 5000 - 2000000/1000 = +3000us.
  const std::string client = write_temp_trace(
      "tm_client.json",
      "{\"traceEvents\":[\n"
      "{\"pid\":0,\"tid\":0,\"ph\":\"i\",\"ts\":2000.0,\"s\":\"t\","
      "\"name\":\"ship.hello\",\"cat\":\"serve\","
      "\"args\":{\"ctx\":\"abc\",\"v\":2000000}},\n"
      "{\"pid\":0,\"tid\":0,\"ph\":\"X\",\"ts\":2100.0,\"dur\":50.0,"
      "\"name\":\"ship.frame\",\"cat\":\"serve\","
      "\"args\":{\"ctx\":\"abc\",\"v\":1}}\n"
      "],\"displayTimeUnit\":\"ms\"}\n");
  // A third file with no pairable handshake keeps its own clock.
  const std::string lone = write_temp_trace(
      "tm_lone.json",
      "{\"traceEvents\":[\n"
      "{\"pid\":0,\"tid\":0,\"ph\":\"i\",\"ts\":100.0,\"s\":\"t\","
      "\"name\":\"lone\",\"cat\":\"run\"}\n"
      "],\"displayTimeUnit\":\"ms\"}\n");

  std::ostringstream os;
  const ctl::TraceMergeResult r =
      ctl::merge_traces({daemon, client, lone}, os);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.files, 3u);
  EXPECT_EQ(r.events, 5u);
  EXPECT_EQ(r.contexts_paired, 1u);
  EXPECT_EQ(r.files_shifted, 1u);

  const std::string out = os.str();
  JsonCursor cursor(out);
  EXPECT_TRUE(cursor.parse()) << out;
  // The unpaired file rebased the whole timeline: its event is earliest
  // (100 < 5000), so it lands at t=0 in its own pid lane.
  const std::size_t lone_at = out.find("\"name\":\"lone\"");
  ASSERT_NE(lone_at, std::string::npos);
  const std::size_t lone_line = out.rfind('\n', lone_at) + 1;
  EXPECT_EQ(out.compare(lone_line, 22, "{\"pid\":2,\"tid\":0,\"ph\":"), 0)
      << out.substr(lone_line, 80);
  EXPECT_NE(out.find("\"ts\":0.0", lone_line), std::string::npos);
  // Both hellos land on the same instant after the shift: 5000 - 100.
  std::size_t hellos_at_4900 = 0;
  for (std::size_t at = out.find("\"ts\":4900.0"); at != std::string::npos;
       at = out.find("\"ts\":4900.0", at + 1)) {
    ++hellos_at_4900;
  }
  EXPECT_EQ(hellos_at_4900, 2u) << out;
  EXPECT_NE(out.find("\"contextsPaired\":1,\"filesShifted\":1"),
            std::string::npos);
}

TEST(TraceMerge, RejectsNonTraceInputAndEmptyList) {
  std::ostringstream os;
  ctl::TraceMergeResult r = ctl::merge_traces({}, os);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, "no input traces");

  const std::string garbage =
      write_temp_trace("tm_garbage.json", "hello world\n");
  r = ctl::merge_traces({garbage}, os);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("not a Chrome trace"), std::string::npos)
      << r.error;
  EXPECT_TRUE(os.str().empty()) << "failed merge must write nothing";
}

// Last: floods the fixed-capacity registry. Registrations past the cap land
// on the shared overflow sink instead of failing, and the spill is counted.
// Any test registering new names after this one would hit the overflow
// entry, so this must stay at the end of the file.
TEST(Registry, OverflowSpillsToSharedSinkAndCounts) {
  ctl::Counter& full = ctl::counter("telemetry.registry_full");
  const std::uint64_t spills_before = full.value();
  std::vector<ctl::Counter*> made;
  for (int i = 0; i < 300; ++i) {
    const std::string name = "test.flood." + std::to_string(i);
    made.push_back(&ctl::counter(name.c_str()));
    made.back()->add(1);  // must be safe to use, wherever it landed
  }
  EXPECT_GT(full.value(), spills_before) << "no spill was counted";
  // Spilled names share one sink; the process did not crash and every
  // reference stayed usable — that is the whole contract.
}

}  // namespace
