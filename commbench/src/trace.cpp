// Statistics and report helpers, the span log and the timing decorator of
// the traced run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace commbench {

namespace ci = commscope::instrument;
namespace ctl = commscope::telemetry;

namespace {

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

/// Per-thread stack of open spans (spans nest within one thread). Entries
/// name their log: a forked app process inherits its parent's stack, whose
/// ids mean nothing in the child's own log.
thread_local std::vector<std::pair<const SpanLog*, int>> t_open;

int small_tid() {
  static std::mutex mu;
  static std::vector<std::thread::id> seen;
  thread_local int tid = -1;
  if (tid < 0) {
    std::lock_guard<std::mutex> lock(mu);
    tid = static_cast<int>(seen.size());
    seen.push_back(std::this_thread::get_id());
  }
  return tid;
}

void escape_json(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_epoch)
          .count());
}

double now_s() noexcept { return static_cast<double>(now_ns()) * 1e-9; }

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

std::string fmt(double v, int prec) {
  std::ostringstream os;
  os.precision(prec);
  os << v;
  return os.str();
}

double snapshot_value(const std::vector<ctl::MetricSnapshot>& all,
                      const char* name) {
  for (const ctl::MetricSnapshot& m : all) {
    if (m.name == name) return static_cast<double>(m.value);
  }
  return 0.0;
}

double snapshot_quantile(const std::vector<ctl::MetricSnapshot>& all,
                         const char* name, double q) {
  for (const ctl::MetricSnapshot& m : all) {
    if (m.name == name) return static_cast<double>(ctl::histogram_quantile(m, q));
  }
  return 0.0;
}

Tail tail_of(const std::vector<double>& v) {
  static constexpr std::pair<const char*, double> kTails[] = {
      {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p75", 0.75}};
  for (const auto& [name, q] : kTails) {
    if (static_cast<double>(v.size()) * (1.0 - q) >= 10.0) {
      return {name, quantile(v, q)};
    }
  }
  return {"p50", quantile(v, 0.5)};
}

// --- SpanLog ----------------------------------------------------------------

int SpanLog::begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = !t_open.empty() && t_open.back().first == this
                 ? t_open.back().second
                 : -1;
  s.tid = small_tid();
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    s.id = id;
    spans_.push_back(std::move(s));
  }
  t_open.emplace_back(this, id);
  // Stamp last so the bookkeeping above is outside the span.
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].start_ns = t;
  return id;
}

void SpanLog::end(int id) {
  const std::uint64_t t = now_ns();
  if (!t_open.empty() && t_open.back() == std::pair<const SpanLog*, int>(this, id)) {
    t_open.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

double SpanLog::total_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double ms = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  }
  return ms;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanLog::import(const std::vector<Span>& spans, int parent) {
  std::lock_guard<std::mutex> lock(mu_);
  const int base = static_cast<int>(spans_.size());
  for (Span s : spans) {
    s.id += base;
    s.parent = s.parent < 0 ? parent : s.parent + base;
    spans_.push_back(std::move(s));
  }
}

void SpanLog::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    os << (first ? "\n" : ",\n") << "{\"name\":\"";
    escape_json(os, s.name);
    os << "\",\"cat\":\"" << s.name.substr(0, s.name.find('.'))
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"ts\":" << static_cast<double>(s.start_ns) * 1e-3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
    first = false;
  }
  os << "\n]}\n";
}

// --- TimingSink ----------------------------------------------------------------

std::vector<double> SinkSamples::flat(
    const std::vector<std::vector<double>>& lanes) {
  std::vector<double> all;
  for (const auto& lane : lanes) all.insert(all.end(), lane.begin(), lane.end());
  return all;
}

TimingSink::TimingSink(ci::AccessSink& inner,
                       const commscope::core::Profiler& profiler,
                       SinkSamples& samples)
    : inner_(&inner),
      profiler_(&profiler),
      samples_(&samples),
      batch_(profiler.options().batch_size),
      ticks_(std::make_unique<Tick[]>(samples.access.size())) {}

void TimingSink::on_loop_enter(int tid, ci::LoopId id) {
  const auto t = static_cast<std::size_t>(tid);
  if (++ticks_[t].loop % kLoopEvery != 0) {
    inner_->on_loop_enter(tid, id);
    return;
  }
  const std::uint64_t t0 = now_ns();
  inner_->on_loop_enter(tid, id);
  const std::uint64_t t1 = now_ns();
  samples_->loop[t].push_back(static_cast<double>(t1 - t0));
}

void TimingSink::on_loop_exit(int tid) {
  const auto t = static_cast<std::size_t>(tid);
  if (++ticks_[t].loop % kLoopEvery != 0) {
    inner_->on_loop_exit(tid);
    return;
  }
  const std::uint64_t t0 = now_ns();
  inner_->on_loop_exit(tid);
  const std::uint64_t t1 = now_ns();
  samples_->loop[t].push_back(static_cast<double>(t1 - t0));
}

void TimingSink::on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                           ci::AccessKind kind) {
  const auto t = static_cast<std::size_t>(tid);
  Tick& tick = ticks_[t];
  // The call that completes the micro-batch is the one that drains it.
  const bool drains =
      batch_ != 0 && profiler_->pending_events(tid) + 1 == batch_;
  const bool sample_access = ++tick.access % kAccessEvery == 0;
  const bool sample_drain = drains && ++tick.drain % kDrainEvery == 0;
  if (!sample_access && !sample_drain) {
    inner_->on_access(tid, addr, size, kind);
    return;
  }
  const std::uint64_t t0 = now_ns();
  inner_->on_access(tid, addr, size, kind);
  const std::uint64_t t1 = now_ns();
  const auto ns = static_cast<double>(t1 - t0);
  if (sample_access) samples_->access[t].push_back(ns);
  if (sample_drain) samples_->drain[t].push_back(ns);
}

void TimingSink::on_drain(int tid) {
  const std::uint64_t t0 = now_ns();
  inner_->on_drain(tid);
  const std::uint64_t t1 = now_ns();
  samples_->drain[static_cast<std::size_t>(tid)].push_back(
      static_cast<double>(t1 - t0));
}

}  // namespace commbench
