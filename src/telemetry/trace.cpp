#include "telemetry/trace.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <string>
#include <vector>

namespace commscope::telemetry {

const char* to_string(SpanCat cat) noexcept {
  switch (cat) {
    case SpanCat::kLoop: return "loop";
    case SpanCat::kRun: return "run";
    case SpanCat::kFlush: return "flush";
    case SpanCat::kQuiesce: return "quiesce";
    case SpanCat::kCheckpoint: return "checkpoint";
    case SpanCat::kGuard: return "guard";
    case SpanCat::kDegrade: return "degrade";
    case SpanCat::kStress: return "stress";
    case SpanCat::kBatch: return "batch";
    case SpanCat::kEpoch: return "epoch";
    case SpanCat::kServe: return "serve";
    case SpanCat::kWal: return "wal";
  }
  return "?";
}

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

enum class EventKind : std::uint8_t { kBegin, kEnd, kInstant, kComplete };

struct Event {
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;          // kComplete only
  std::uint64_t ctx = 0;             // cross-process trace context (0 = none)
  std::uint64_t arg = 0;             // event-scoped value (args.v; 0 = none)
  const char* name = nullptr;        // static string; null -> loop_id names it
  std::uint32_t loop_id = 0;
  std::int32_t tid = -1;
  EventKind kind = EventKind::kInstant;
  SpanCat cat = SpanCat::kRun;
};

// Fixed ring pool, all static storage (trivially destructible: safe from
// atexit hooks and thread_local teardown, and the disabled path can never
// allocate). 80 rings x 2048 events x 64 B = 10 MiB of BSS, committed
// only as pages are touched.
constexpr int kRings = 80;
constexpr std::uint64_t kRingCap = 2048;

struct Ring {
  Event events[kRingCap];
  // Monotonic write position; slot = head % kRingCap. Single writer (the
  // owning thread); export reads head with acquire after quiescing.
  std::atomic<std::uint64_t> head{0};
};

struct TraceState {
  Ring rings[kRings];
  std::atomic<int> next_ring{0};
  std::atomic<std::uint64_t> spilled{0};  // events from threads past the pool
  std::chrono::steady_clock::time_point epoch{};
};

TraceState& st() noexcept {
  static TraceState s;
  return s;
}

// Ring claim, cached per thread. -1 = unclaimed, -2 = pool exhausted.
thread_local int tl_ring = -1;

Ring* my_ring() noexcept {
  if (tl_ring >= 0) [[likely]] return &st().rings[tl_ring];
  if (tl_ring == -2) {
    st().spilled.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  const int idx = st().next_ring.fetch_add(1, std::memory_order_relaxed);
  if (idx >= kRings) {
    tl_ring = -2;
    st().spilled.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  tl_ring = idx;
  return &st().rings[idx];
}

void record(const Event& e) noexcept {
  Ring* r = my_ring();
  if (r == nullptr) return;
  const std::uint64_t h = r->head.load(std::memory_order_relaxed);
  r->events[h % kRingCap] = e;
  r->head.store(h + 1, std::memory_order_release);
}

void escape_json(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
}

/// Lower-case hex rendering of a trace context id (no leading zeros —
/// matches the wire "ctx <hex>" token the shipper sends).
std::string ctx_hex(std::uint64_t ctx) {
  char buf[17];
  int i = 16;
  buf[i] = '\0';
  do {
    buf[--i] = "0123456789abcdef"[ctx & 0xf];
    ctx >>= 4;
  } while (ctx != 0);
  return std::string(buf + i);
}

/// Chrome `args` block for events carrying a cross-process context and/or
/// value. The ctx is a hex *string* (64-bit ids do not survive JSON's
/// double-precision numbers).
void write_args_json(std::ostream& os, const Event& e) {
  if (e.ctx == 0 && e.arg == 0) return;
  os << ",\"args\":{";
  bool first = true;
  if (e.ctx != 0) {
    os << "\"ctx\":\"" << ctx_hex(e.ctx) << "\"";
    first = false;
  }
  if (e.arg != 0) {
    if (!first) os << ',';
    os << "\"v\":" << e.arg;
  }
  os << "}";
}

std::string event_name(const Event& e, const Tracer::LoopResolver& resolve) {
  if (e.name != nullptr) return e.name;
  if (resolve) return resolve(e.loop_id);
  return "loop#" + std::to_string(e.loop_id);
}

/// Display lane: profiler tids as-is; runtime threads (tid -1) on lanes
/// above the matrix ceiling, one per ring, so maintenance work does not
/// overdraw a worker's track.
int display_tid(const Event& e, int ring) noexcept {
  return e.tid >= 0 ? e.tid : 64 + ring;
}

struct Collected {
  Event event;
  int ring = 0;
};

std::vector<Collected> collect() {
  std::vector<Collected> out;
  TraceState& s = st();
  const int rings = std::min(s.next_ring.load(std::memory_order_acquire),
                             kRings);
  for (int i = 0; i < rings; ++i) {
    Ring& r = s.rings[i];
    const std::uint64_t head = r.head.load(std::memory_order_acquire);
    const std::uint64_t n = std::min(head, kRingCap);
    for (std::uint64_t k = head - n; k < head; ++k) {
      out.push_back({r.events[k % kRingCap], i});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Collected& a, const Collected& b) {
                     return a.event.ts_ns < b.event.ts_ns;
                   });
  return out;
}

}  // namespace

void Tracer::enable() {
  if (enabled()) return;
  TraceState& s = st();
  const int rings = std::min(s.next_ring.load(std::memory_order_relaxed),
                             kRings);
  for (int i = 0; i < rings; ++i) {
    s.rings[i].head.store(0, std::memory_order_relaxed);
  }
  s.spilled.store(0, std::memory_order_relaxed);
  s.epoch = std::chrono::steady_clock::now();
  detail::g_trace_enabled.store(true, std::memory_order_release);
}

void Tracer::disable() noexcept {
  detail::g_trace_enabled.store(false, std::memory_order_release);
}

std::uint64_t Tracer::now_ns() noexcept {
  if (!enabled()) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - st().epoch)
          .count());
}

void Tracer::begin_impl(const char* name, SpanCat cat, int tid) noexcept {
  record({now_ns(), 0, 0, 0, name, 0, tid, EventKind::kBegin, cat});
}

void Tracer::end_impl(SpanCat cat, int tid) noexcept {
  record({now_ns(), 0, 0, 0, nullptr, 0xffffffffU, tid, EventKind::kEnd,
          cat});
}

void Tracer::instant_impl(const char* name, SpanCat cat, int tid,
                          std::uint64_t ctx, std::uint64_t arg) noexcept {
  record({now_ns(), 0, ctx, arg, name, 0, tid, EventKind::kInstant, cat});
}

void Tracer::complete_impl(const char* name, SpanCat cat, int tid,
                           std::uint64_t ts_ns, std::uint64_t dur_ns,
                           std::uint64_t ctx, std::uint64_t arg) noexcept {
  record({ts_ns, dur_ns, ctx, arg, name, 0, tid, EventKind::kComplete, cat});
}

void Tracer::loop_begin_impl(int tid, std::uint32_t loop_id) noexcept {
  record({now_ns(), 0, 0, 0, nullptr, loop_id, tid, EventKind::kBegin,
          SpanCat::kLoop});
}

void Tracer::loop_end_impl(int tid) noexcept {
  record({now_ns(), 0, 0, 0, nullptr, 0xffffffffU, tid, EventKind::kEnd,
          SpanCat::kLoop});
}

std::uint64_t Tracer::captured() noexcept {
  TraceState& s = st();
  const int rings = std::min(s.next_ring.load(std::memory_order_acquire),
                             kRings);
  std::uint64_t n = 0;
  for (int i = 0; i < rings; ++i) {
    n += std::min(s.rings[i].head.load(std::memory_order_acquire), kRingCap);
  }
  return n;
}

std::uint64_t Tracer::dropped() noexcept {
  TraceState& s = st();
  const int rings = std::min(s.next_ring.load(std::memory_order_acquire),
                             kRings);
  std::uint64_t n = s.spilled.load(std::memory_order_relaxed);
  for (int i = 0; i < rings; ++i) {
    const std::uint64_t head =
        s.rings[i].head.load(std::memory_order_acquire);
    if (head > kRingCap) n += head - kRingCap;
  }
  return n;
}

void Tracer::write_chrome_trace(std::ostream& os,
                                const LoopResolver& resolve) {
  const std::vector<Collected> events = collect();
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Collected& c : events) {
    const Event& e = c.event;
    if (!first) os << ",";
    first = false;
    os << "\n{\"pid\":0,\"tid\":" << display_tid(e, c.ring) << ",\"cat\":\""
       << to_string(e.cat) << "\",\"ts\":" << e.ts_ns / 1000 << '.'
       << (e.ts_ns / 100) % 10 << ",\"ph\":\"";
    switch (e.kind) {
      case EventKind::kBegin:
        os << "B\",\"name\":\"";
        escape_json(os, event_name(e, resolve));
        os << "\"";
        break;
      case EventKind::kEnd:
        os << "E\"";
        break;
      case EventKind::kInstant:
        os << "i\",\"s\":\"t\",\"name\":\"";
        escape_json(os, event_name(e, resolve));
        os << "\"";
        write_args_json(os, e);
        break;
      case EventKind::kComplete:
        os << "X\",\"dur\":" << e.dur_ns / 1000 << '.' << (e.dur_ns / 100) % 10
           << ",\"name\":\"";
        escape_json(os, event_name(e, resolve));
        os << "\"";
        write_args_json(os, e);
        break;
    }
    os << "}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"commscope\""
     << ",\"droppedEvents\":" << dropped() << "}}\n";
}

void Tracer::write_text(std::ostream& os, const LoopResolver& resolve) {
  const std::vector<Collected> events = collect();
  os << "# commscope-trace v1 (us since enable; " << events.size()
     << " events, " << dropped() << " dropped)\n";
  for (const Collected& c : events) {
    const Event& e = c.event;
    os << e.ts_ns / 1000 << " tid=" << display_tid(e, c.ring) << ' '
       << to_string(e.cat) << ' ';
    switch (e.kind) {
      case EventKind::kBegin: os << "B " << event_name(e, resolve); break;
      case EventKind::kEnd: os << "E"; break;
      case EventKind::kInstant: os << "I " << event_name(e, resolve); break;
      case EventKind::kComplete:
        os << "X " << event_name(e, resolve) << " dur=" << e.dur_ns / 1000
           << "us";
        break;
    }
    if (e.ctx != 0) os << " ctx=" << ctx_hex(e.ctx);
    if (e.arg != 0) os << " v=" << e.arg;
    os << "\n";
  }
}

}  // namespace commscope::telemetry
