// The live-profiling workloads: live-plain, live-features, live-checkpoint.
//
// Each app of the mix runs in a process of its own with a fresh profiler and
// sink stack, built the way `commscope run` builds them for the workload's
// flags, on a fresh ThreadTeam of nproc pinned workers. Every instrumented
// leg is interleaved with its native NullSink twin (alternating which goes
// first), and a run repeats the whole mix in passes until --seconds have
// elapsed. Leg times are each app's best pass, summed over the mix; set-up
// is summed over a pass and reported as the median over passes.
#include <pthread.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "bench.hpp"
#include "core/comm_diff.hpp"
#include "core/epoch_io.hpp"
#include "core/phase.hpp"
#include "core/report.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/crash_guard.hpp"
#include "resilience/guarded_sink.hpp"
#include "resilience/resource_guard.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/self_profile.hpp"
#include "telemetry/trace.hpp"
#include "threading/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace commbench {

namespace cc = commscope::core;
namespace ci = commscope::instrument;
namespace cr = commscope::resilience;
namespace cs = commscope::support;
namespace ct = commscope::threading;
namespace ctl = commscope::telemetry;
namespace cw = commscope::workloads;

namespace {

/// What one live workload runs: the app mix, its scale, and the profiler
/// options and sink stack `commscope run` builds for the workload's flags.
struct LiveSpec {
  std::vector<const cw::Workload*> apps;
  cs::Scale scale = cs::Scale::kLarge;
  cc::ProfilerOptions popts;
  bool guarded = false;     ///< a GuardedSink stack (any resilience flag)
  double timeout_s = 0.0;   ///< --timeout watchdog
  bool checkpoint = false;  ///< --checkpoint=<work_dir>/ck.bin
};

LiveSpec spec_for(const Config& cfg) {
  LiveSpec s;
  // CLI defaults: signature backend, 2^20 slots, fp 0.001, unbatched.
  s.popts.max_threads = cfg.threads;
  std::vector<std::string> names;
  if (cfg.workload == "live-checkpoint") {
    names = {"radix", "lu_ncb", "ocean_ncp"};
    s.scale = cs::Scale::kSmall;
    s.popts.epoch_accesses = 100000;  // --epoch-every=100000
    s.guarded = true;
    s.checkpoint = true;  // default --checkpoint-every=65536
  } else {
    for (const cw::Workload& w : cw::registry()) names.push_back(w.name);
    s.scale = cs::Scale::kLarge;
    if (cfg.workload == "live-features") {
      s.popts.batch_size = 64;             // --batch=64
      s.popts.epoch_accesses = 100000;     // --epoch-every=100000
      s.popts.phase_window_bytes = 65536;  // --phases=65536
      s.popts.perf = true;                 // --perf
      s.guarded = true;                    // --timeout=100
      s.timeout_s = 100.0;
    }
  }
  if (cfg.smoke) {
    s.scale = cs::Scale::kDev;
    names.resize(2);
  }
  for (const std::string& n : names) s.apps.push_back(cw::find(n));
  return s;
}

/// A profiler plus the resilience stack around it, torn down the way the
/// CLI's ResilienceStack tears it down.
struct Stack {
  std::unique_ptr<cc::Profiler> profiler;
  std::unique_ptr<cr::ResourceGuard> guard;
  std::unique_ptr<cr::GuardedSink> sink;
  bool armed = false;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    if (armed) {
      cr::CrashGuard::instance().cancel_watchdog();
      cr::CrashGuard::instance().disarm();
    }
  }

  [[nodiscard]] ci::AccessSink& outer() {
    return sink != nullptr ? static_cast<ci::AccessSink&>(*sink) : *profiler;
  }
};

std::unique_ptr<Stack> make_stack(const LiveSpec& spec, const std::string& ck,
                                  SpanLog* spans) {
  auto st = std::make_unique<Stack>();
  {
    Scope span(spans, "core.profiler_new");
    st->profiler = std::make_unique<cc::Profiler>(spec.popts);
  }
  if (spec.guarded) {
    Scope span(spans, "resilience.sink_new");
    cr::GuardedSink::Options o;
    if (spec.checkpoint) {
      o.checkpoint_path = ck;
      o.checkpoint_every = 65536;
    }
    st->guard = std::make_unique<cr::ResourceGuard>(cr::GuardOptions{},
                                                    *st->profiler);
    cr::CrashGuard& crash = cr::CrashGuard::instance();
    crash.arm(o.checkpoint_path);
    if (spec.timeout_s > 0.0) crash.start_watchdog(spec.timeout_s);
    st->armed = true;
    st->sink = std::make_unique<cr::GuardedSink>(*st->profiler,
                                                 st->guard.get(), o, nullptr,
                                                 &crash);
  }
  return st;
}

/// Pins worker `tid` of `team` to the tid-th CPU this process may run on,
/// so every app sees the same thread placement.
void pin_team(ct::ThreadTeam& team) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) return;
  team.run([&](int tid) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<std::size_t>(tid) % cpus.size()], &one);
    (void)::pthread_setaffinity_np(::pthread_self(), sizeof one, &one);
  });
}

/// Counts accesses per worker (each lane written by its own thread only);
/// the warm-up pass uses it to learn each app's deterministic access count.
class CountingSink final : public ci::AccessSink {
 public:
  explicit CountingSink(int threads)
      : lanes_(std::make_unique<Lane[]>(static_cast<std::size_t>(threads))),
        threads_(threads) {}
  void on_thread_begin(int) override {}
  void on_loop_enter(int, ci::LoopId) override {}
  void on_loop_exit(int) override {}
  void on_access(int tid, std::uintptr_t, std::uint32_t,
                 ci::AccessKind) override {
    ++lanes_[static_cast<std::size_t>(tid)].n;
  }
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t n = 0;
    for (int t = 0; t < threads_; ++t) n += lanes_[static_cast<std::size_t>(t)].n;
    return n;
  }

 private:
  struct alignas(64) Lane {
    std::uint64_t n = 0;
  };
  std::unique_ptr<Lane[]> lanes_;
  int threads_;
};

// --- the deterministic accuracy leg ------------------------------------------

/// One captured event of one worker's program-order stream.
struct Ev {
  std::uint64_t payload = 0;  ///< address or LoopId
  std::uint32_t size = 0;
  std::uint8_t kind = 0;      ///< Ev::k*
  std::uint8_t access = 0;    ///< AccessKind of an access
  bool operator==(const Ev&) const = default;

  static constexpr std::uint8_t kBegin = 0;
  static constexpr std::uint8_t kEnter = 1;
  static constexpr std::uint8_t kExit = 2;
  static constexpr std::uint8_t kAccess = 3;
};
using Lanes = std::vector<std::vector<Ev>>;

/// Records each worker's stream into its own lane (no shared state).
class CaptureSink final : public ci::AccessSink {
 public:
  explicit CaptureSink(int threads) : lanes_(static_cast<std::size_t>(threads)) {}
  void on_thread_begin(int tid) override { lane(tid).push_back({0, 0, Ev::kBegin, 0}); }
  void on_loop_enter(int tid, ci::LoopId id) override {
    lane(tid).push_back({id, 0, Ev::kEnter, 0});
  }
  void on_loop_exit(int tid) override { lane(tid).push_back({0, 0, Ev::kExit, 0}); }
  void on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                 ci::AccessKind kind) override {
    lane(tid).push_back({addr, size, Ev::kAccess, static_cast<std::uint8_t>(kind)});
  }
  [[nodiscard]] Lanes take() { return std::move(lanes_); }

 private:
  std::vector<Ev>& lane(int tid) { return lanes_.at(static_cast<std::size_t>(tid)); }
  Lanes lanes_;
};

/// Visits every lane in the fixed replay order: round-robin chunks of
/// kChunk events by tid, each lane in its own program order.
template <typename L, typename F>
void round_robin(L& lanes, F&& visit) {
  constexpr std::size_t kChunk = 256;
  std::vector<std::size_t> pos(lanes.size(), 0);
  for (bool more = true; more;) {
    more = false;
    for (std::size_t t = 0; t < lanes.size(); ++t) {
      const std::size_t end = std::min(pos[t] + kChunk, lanes[t].size());
      for (; pos[t] < end; ++pos[t]) visit(static_cast<int>(t), lanes[t][pos[t]]);
      more = more || pos[t] < lanes[t].size();
    }
  }
}

/// Renames every address to a dense id (first appearance in replay order,
/// 8-byte spaced), so the replay does not depend on where the allocator
/// placed the app's arrays in this process.
void canonicalize(Lanes& lanes) {
  std::unordered_map<std::uint64_t, std::uint64_t> ids;
  round_robin(lanes, [&](int, Ev& e) {
    if (e.kind != Ev::kAccess) return;
    const auto [it, fresh] = ids.try_emplace(e.payload, ids.size());
    (void)fresh;
    e.payload = 64 + it->second * 8;
  });
}

Lanes capture(const cw::Workload& w, cs::Scale scale, int threads, bool& ok) {
  ct::ThreadTeam team(threads);
  CaptureSink sink(threads);
  ok = w.run(scale, team, &sink).ok && ok;
  Lanes lanes = sink.take();
  canonicalize(lanes);
  return lanes;
}

/// Apps whose per-thread streams depend on the schedule: raytrace hands out
/// tiles from a shared counter, and water_spat's streams differ between
/// some captures. recorder_timelines() leaves them out, so that they never
/// join the recorded epochs in some runs only.
constexpr std::string_view kScheduleDependent[] = {"raytrace", "water_spat"};

/// Exit code of an in_child() child whose body threw; its pipe holds the
/// exception's message.
constexpr int kChildThrew = 4;

/// Captures `w` three times into `lanes`; true when every capture equals
/// the first. Three, not two: an app whose streams only sometimes differ
/// (water_spat) would otherwise drop in and out between runs, and what is
/// built from the captures must repeat exactly.
bool capture_repeatable(const cw::Workload& w, cs::Scale scale, int threads,
                        bool& ok, Lanes& lanes) {
  lanes = capture(w, scale, threads, ok);
  bool same = true;
  for (int again = 0; again < 2 && same; ++again) {
    same = lanes == capture(w, scale, threads, ok);
  }
  return same;
}

/// A fresh profiler with options `o`, fed `lanes` in the fixed replay order
/// and finalized.
std::unique_ptr<cc::Profiler> replay(const Lanes& lanes, cc::ProfilerOptions o) {
  o.perf = false;  // counters never change matrices; keep the replay local
  auto p = std::make_unique<cc::Profiler>(o);
  round_robin(lanes, [&](int tid, const Ev& e) {
    switch (e.kind) {
      case Ev::kBegin: p->on_thread_begin(tid); break;
      case Ev::kEnter: p->on_loop_enter(tid, static_cast<ci::LoopId>(e.payload)); break;
      case Ev::kExit: p->on_loop_exit(tid); break;
      default:
        p->on_access(tid, static_cast<std::uintptr_t>(e.payload), e.size,
                     static_cast<ci::AccessKind>(e.access));
    }
  });
  p->finalize();
  return p;
}

struct Accuracy {
  double l1 = 0.0;
  int apps = 0;
  std::vector<std::string> excluded;
};

/// Signature-vs-exact normalized L1 distance, summed over apps, on a fixed
/// replay of each app's captured streams. Apps whose per-thread streams
/// differ between recordings are excluded and listed.
Accuracy accuracy_leg(const LiveSpec& spec, const Config& cfg, Outcome& out) {
  Accuracy acc;
  for (const cw::Workload* w : spec.apps) {
    bool ok = true;
    Lanes a;
    const bool same = capture_repeatable(*w, spec.scale, cfg.threads, ok, a);
    out.attempt(ok, w->name + ": verification failed in the accuracy leg");
    if (!ok) continue;
    if (!same) {
      acc.excluded.push_back(w->name);
      continue;
    }
    cc::ProfilerOptions exact = spec.popts;
    exact.backend = cc::Backend::kExact;
    const cc::Matrix sig = replay(a, spec.popts)->communication_matrix();
    const cc::Matrix ref = replay(a, exact)->communication_matrix();
    acc.l1 += cc::matrix_distance(sig, ref).norm_l1;
    ++acc.apps;
  }
  return acc;
}

/// The checks every instrumented app run must pass; returns why it failed
/// (empty when it held).
std::string check_app(const LiveSpec& spec, const Config& cfg, Stack& st,
                      std::uint64_t expected, const std::string& ck,
                      bool corrupt, SpanLog* spans) {
  cc::Profiler& p = *st.profiler;
  const cc::ProfileStats ps = p.stats();
  if (ps.accesses != expected) {
    return "profiled " + std::to_string(ps.accesses) + " accesses, expected " +
           std::to_string(expected);
  }
  if (p.dropped_events() != 0) {
    return std::to_string(p.dropped_events()) + " dropped events";
  }
  if (st.sink != nullptr &&
      (st.sink->reentrant_drops() != 0 || st.sink->suppressed() != 0)) {
    return "sink dropped or suppressed events";
  }
  const cc::Matrix matrix = p.communication_matrix();
  if (p.recorder().enabled() && p.recorder().epochs_dropped() == 0) {
    cc::Matrix total = p.epoch_timeline().total();
    // In the checkpoint mix the flipped cell goes to the checkpoint check.
    if (corrupt && cfg.inject == "cell" && !spec.checkpoint) total.at(0, 1) += 1;
    if (cc::matrix_distance(total, matrix).l1 != 0) {
      return "epoch deltas do not sum to the final matrix";
    }
  }
  if (!spec.checkpoint) return "";
  if (corrupt && cfg.inject == "truncate") {
    std::filesystem::resize_file(ck, std::filesystem::file_size(ck) / 2);
  }
  try {
    cr::Checkpoint snap;
    {
      Scope span(spans, "resilience.load_checkpoint");
      snap = cr::load_checkpoint(ck);
    }
    cc::Matrix program = snap.program();
    if (corrupt && cfg.inject == "cell") program.at(1, 0) += 1;
    if (cc::matrix_distance(program, matrix).l1 != 0) {
      return "final checkpoint matrix differs from the in-memory matrix";
    }
    std::ifstream sidecar(ck + ".epochs");
    const cc::EpochTimeline t = cc::read_epochs(sidecar);
    if (t.dropped == 0 && cc::matrix_distance(t.total(), matrix).l1 != 0) {
      return "checkpoint sidecar epochs do not sum to the final matrix";
    }
  } catch (const std::exception& e) {
    return std::string("checkpoint reload failed: ") + e.what();
  }
  return "";
}

// --- one app in its own process ----------------------------------------------

/// Native-twin runs per app process; the best one is its native leg. They
/// continue until kNativeMinReps runs and a time budget of kNativeShare of
/// the app's previous instrumented leg (at least kNativeMinSeconds).
constexpr int kNativeMinReps = 3;
constexpr int kNativeMaxReps = 1000;
constexpr double kNativeMinSeconds = 0.01;
constexpr double kNativeShare = 0.03;

/// What one app's process measured and checked.
struct AppRun {
  double setup_s = 0.0;
  double native_s = 0.0;
  double inst_s = 0.0;
  std::string why;  ///< empty when every check held
  std::uint64_t accesses = 0;
  std::uint64_t dependencies = 0;
  std::uint64_t dropped = 0;
  std::uint64_t epochs_sealed = 0;
  std::uint64_t epochs_dropped = 0;
  std::uint64_t phase_windows = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t reentrant = 0;
  std::uint64_t suppressed = 0;
  double cycles = 0.0;
  double instructions = 0.0;
  double peak_bytes = 0.0;
  double rss_bytes = 0.0;
  // Traced runs only: the process's telemetry registry, spans and samples.
  std::string metrics;
  std::vector<SpanLog::Span> spans;
  std::vector<double> access_ns;
  std::vector<double> loop_ns;
  std::vector<double> drain_ns;

  /// Visits every field in one fixed order (the pipe format).
  template <typename IO>
  void fields(IO& io) {
    io(setup_s), io(native_s), io(inst_s), io(why), io(accesses);
    io(dependencies), io(dropped), io(epochs_sealed), io(epochs_dropped);
    io(phase_windows), io(checkpoints), io(checkpoint_bytes), io(reentrant);
    io(suppressed), io(cycles), io(instructions), io(peak_bytes), io(rss_bytes);
    io(metrics), io(access_ns), io(loop_ns), io(drain_ns);
    std::uint64_t n = spans.size();
    io(n);
    spans.resize(n);
    for (SpanLog::Span& s : spans) {
      io(s.name), io(s.start_ns), io(s.end_ns);
      std::uint64_t id = static_cast<std::uint64_t>(s.id);
      std::uint64_t parent = static_cast<std::uint64_t>(s.parent + 1);
      std::uint64_t tid = static_cast<std::uint64_t>(s.tid);
      io(id), io(parent), io(tid);
      s.id = static_cast<int>(id);
      s.parent = static_cast<int>(parent) - 1;
      s.tid = static_cast<int>(tid);
    }
  }
};

struct Writer {
  std::string buf;
  void raw(const void* p, std::size_t n) {
    buf.append(static_cast<const char*>(p), n);
  }
  void operator()(double& v) { raw(&v, sizeof v); }
  void operator()(std::uint64_t& v) { raw(&v, sizeof v); }
  void operator()(std::string& s) {
    std::uint64_t n = s.size();
    (*this)(n);
    buf += s;
  }
  void operator()(std::vector<double>& v) {
    std::uint64_t n = v.size();
    (*this)(n);
    raw(v.data(), v.size() * sizeof(double));
  }
};

struct Reader {
  std::string_view in;
  void raw(void* p, std::size_t n) {
    if (in.size() < n) throw std::runtime_error("short result from app process");
    std::memcpy(p, in.data(), n);
    in.remove_prefix(n);
  }
  void operator()(double& v) { raw(&v, sizeof v); }
  void operator()(std::uint64_t& v) { raw(&v, sizeof v); }
  void operator()(std::string& s) {
    std::uint64_t n = 0;
    (*this)(n);
    if (n > in.size()) throw std::runtime_error("short result from app process");
    s.assign(in.data(), n);
    in.remove_prefix(n);
  }
  void operator()(std::vector<double>& v) {
    std::uint64_t n = 0;
    (*this)(n);
    if (n > in.size() / sizeof(double)) {
      throw std::runtime_error("short result from app process");
    }
    v.resize(n);
    raw(v.data(), n * sizeof(double));
  }
};

/// Runs `body` in a forked child (see in_child) and returns what it
/// measured. Each app gets a process of its own, as under `commscope run`:
/// in one long-lived process every further profiler runs on a heap
/// fragmented by the previous ones' per-slot bloom filters and gets 2-3x
/// slower, so the numbers would describe the benchmark's history, not the
/// profiler.
AppRun run_in_child(const std::function<AppRun()>& body) {
  AppRun r;
  std::string blob;
  try {
    blob = in_child([&] {
      Writer w;
      AppRun a = body();
      a.fields(w);
      return w.buf;
    });
  } catch (const std::exception& e) {
    r.why = std::string("app process: ") + e.what();
    return r;
  }
  Reader rd{blob};
  r.fields(rd);
  return r;
}

/// Everything one app does in its process: set-up, the interleaved native
/// and instrumented legs, the checks, and (traced) the report step.
AppRun measure_app(const LiveSpec& spec, const Config& cfg,
                   const cw::Workload& w, std::uint64_t expected,
                   const std::string& ck, bool native_first, bool decorated,
                   bool corrupt, double native_budget_s) {
  ctl::reset_all();
  // checkpoint.write_us is only recorded while the library's own tracer
  // runs, so decorated checkpoint passes switch it on.
  if (decorated && spec.checkpoint) commscope::telemetry::Tracer::enable();
  std::unique_ptr<SpanLog> log;
  if (cfg.trace) log = std::make_unique<SpanLog>();
  SpanLog* spans = log.get();
  SinkSamples samples(cfg.threads);
  AppRun r;
  {
    Scope app_span(spans, w.name.c_str());
    const double s0 = now_s();
    std::unique_ptr<Stack> st = make_stack(spec, ck, spans);
    std::unique_ptr<ct::ThreadTeam> team;
    {
      Scope span(spans, "threading.team_start");
      team = std::make_unique<ct::ThreadTeam>(cfg.threads);
    }
    r.setup_s = now_s() - s0;
    // Untimed: `commscope run` does not pin its workers.
    pin_team(*team);

    bool native_ok = false;
    bool inst_ok = false;
    const auto native_leg = [&] {
      // The native twin is cheap (under a millisecond at simsmall) and its
      // time is mostly thread wake-ups, so it takes the best of many runs.
      native_ok = true;
      double total = 0.0;
      for (int rep = 0; rep < kNativeMaxReps &&
                        (rep < kNativeMinReps || total < native_budget_s);
           ++rep) {
        Scope span(spans, "workloads.native");
        const double t0 = now_s();
        native_ok = w.run(spec.scale, *team, nullptr).ok && native_ok;
        const double t = now_s() - t0;
        total += t;
        r.native_s = rep == 0 ? t : std::min(r.native_s, t);
      }
    };
    const auto inst_leg = [&] {
      ci::AccessSink* sink = &st->outer();
      std::unique_ptr<TimingSink> timing;
      if (decorated) {
        timing = std::make_unique<TimingSink>(*sink, *st->profiler, samples);
        sink = timing.get();
      }
      const double t0 = now_s();
      {
        Scope span(spans, "workloads.run");
        inst_ok = w.run(spec.scale, *team, sink).ok;
      }
      {
        Scope span(spans, "core.finalize");
        sink->finalize();
      }
      r.inst_s = now_s() - t0;
    };
    if (native_first) {
      native_leg();
      inst_leg();
    } else {
      inst_leg();
      native_leg();
    }
    r.rss_bytes = static_cast<double>(ctl::peak_rss_bytes());

    cc::Profiler& p = *st->profiler;
    if (!native_ok) r.why = "native verification failed";
    if (r.why.empty() && !inst_ok) r.why = "instrumented verification failed";
    if (r.why.empty()) r.why = check_app(spec, cfg, *st, expected, ck, corrupt, spans);

    const cc::ProfileStats ps = p.stats();
    r.accesses = ps.accesses;
    r.dependencies = ps.dependencies;
    r.dropped = p.dropped_events();
    r.epochs_sealed = p.recorder().epochs_sealed();
    r.epochs_dropped = p.recorder().epochs_dropped();
    r.phase_windows = p.phase_timeline().size();
    r.peak_bytes = static_cast<double>(p.memory().peak());
    if (st->sink != nullptr) {
      r.checkpoints = st->sink->checkpoints_written();
      r.reentrant = st->sink->reentrant_drops();
      r.suppressed = st->sink->suppressed();
    }
    std::error_code ec;
    if (spec.checkpoint) r.checkpoint_bytes = std::filesystem::file_size(ck, ec);
    if (ctl::PerfCounters* pc = p.perf_counters()) {
      const ctl::PerfDelta d = pc->total();
      r.cycles = static_cast<double>(d.cycles);
      r.instructions = static_cast<double>(d.instructions);
    }
    if (spans != nullptr) {
      // What `commscope run` does after the run: report, epochs, phases.
      Scope span(spans, "core.report");
      std::ostringstream sink_out;
      cc::ReportOptions ropts;
      ropts.hide_quiet_regions = true;
      cc::print_report(sink_out, p, ropts);
      cc::write_epochs(sink_out, p.epoch_timeline());
      if (spec.popts.phase_window_bytes > 0) {
        (void)cc::detect_phases(p.phase_timeline(), 0.75,
                                cc::PhaseMetric::kOffsetCosine);
      }
    }
    std::filesystem::remove(ck, ec);
    std::filesystem::remove(ck + ".epochs", ec);
  }
  if (spans != nullptr) {
    std::ostringstream m;
    ctl::write_metrics(m);
    r.metrics = m.str();
    r.spans = spans->spans();
    r.access_ns = SinkSamples::flat(samples.access);
    r.loop_ns = SinkSamples::flat(samples.loop);
    r.drain_ns = SinkSamples::flat(samples.drain);
  }
  return r;
}

// --- the timed passes ------------------------------------------------------------

/// Sums of one pass over the mix.
struct Pass {
  bool decorated = false;
  double setup_s = 0.0;
  double inst_s = 0.0;
  double native_s = 0.0;
  std::uint64_t accesses = 0;
  std::uint64_t dependencies = 0;
  std::uint64_t dropped = 0;
  std::uint64_t epochs_sealed = 0;
  std::uint64_t epochs_dropped = 0;
  std::uint64_t phase_windows = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t reentrant = 0;
  std::uint64_t suppressed = 0;

  void add(const AppRun& r) {
    setup_s += r.setup_s;
    inst_s += r.inst_s;
    native_s += r.native_s;
    accesses += r.accesses;
    dependencies += r.dependencies;
    dropped += r.dropped;
    epochs_sealed += r.epochs_sealed;
    epochs_dropped += r.epochs_dropped;
    phase_windows += r.phase_windows;
    checkpoints += r.checkpoints;
    checkpoint_bytes += r.checkpoint_bytes;
    reentrant += r.reentrant;
    suppressed += r.suppressed;
  }
};

}  // namespace

std::string in_child(const std::function<std::string()>& body) {
  std::cout.flush();
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    std::string out;
    int code = 0;
    try {
      out = body();
    } catch (const std::exception& e) {
      out = e.what();  // the parent rethrows it
      code = kChildThrew;
    }
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::write(fds[1], out.data() + off, out.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) ::_exit(3);
      off += static_cast<std::size_t>(n);
    }
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string blob;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    blob.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) == kChildThrew) {
    throw std::runtime_error(blob);
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child process ended abnormally (wait status " +
                             std::to_string(status) + ")");
  }
  return blob;
}

std::vector<std::pair<std::string, cc::EpochTimeline>> recorder_timelines(
    const Config& cfg) {
  Config features = cfg;
  features.workload = "live-features";
  const LiveSpec spec = spec_for(features);
  std::vector<std::pair<std::string, cc::EpochTimeline>> out;
  for (const cw::Workload* w : spec.apps) {
    if (std::find(std::begin(kScheduleDependent), std::end(kScheduleDependent),
                  w->name) != std::end(kScheduleDependent)) {
      continue;
    }
    bool ok = true;
    Lanes lanes;
    const bool same = capture_repeatable(*w, spec.scale, cfg.threads, ok, lanes);
    if (!ok) throw std::runtime_error(w->name + ": verification failed while recording");
    if (!same) {
      throw std::runtime_error(w->name + ": per-thread streams differ between "
                               "captures, so the recorded epochs would not repeat");
    }
    out.emplace_back(w->name, replay(lanes, spec.popts)->epoch_timeline());
  }
  return out;
}

Outcome run_live(const Config& cfg, SpanLog* spans) {
  Outcome out;
  const LiveSpec spec = spec_for(cfg);
  const std::string ck = cfg.work_dir + "/ck.bin";
  const std::size_t n_apps = spec.apps.size();

  // The seed permutes the app order of every pass.
  std::vector<std::size_t> order(n_apps);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(cfg.seed);
  std::shuffle(order.begin(), order.end(), rng);

  // Untimed warm-up: native twin plus a counting run per app, which fixes
  // each app's deterministic access count. The team is gone before the
  // first fork.
  std::vector<std::uint64_t> expected(n_apps, 0);
  {
    ct::ThreadTeam team(cfg.threads);
    for (std::size_t i = 0; i < n_apps; ++i) {
      const cw::Workload& w = *spec.apps[i];
      CountingSink counter(cfg.threads);
      const bool ok = w.run(spec.scale, team, nullptr).ok &&
                      w.run(spec.scale, team, &counter).ok;
      out.attempt(ok, w.name + ": verification failed in the warm-up pass");
      expected[i] = counter.total();
    }
  }

  std::vector<Pass> passes;
  // Per-app leg times over the passes: [app][pass]. Decorated legs of a
  // traced run are kept apart; they only feed trace_overhead_frac.
  std::vector<std::vector<double>> app_inst(n_apps), app_native(n_apps),
      app_traced(n_apps);
  std::vector<double> last_inst(n_apps, 0.0);
  std::vector<double> access_ns, loop_ns, drain_ns;
  std::vector<ctl::MetricSnapshot> metrics;
  double peak_bytes = 0.0;
  double rss_bytes = 0.0;
  double cycles = 0.0;
  double instructions = 0.0;
  double traced_accesses = 0.0;
  bool corrupted = false;
  const double deadline = now_s() + cfg.seconds;
  // A traced run alternates undecorated and decorated passes, so it can
  // report its own overhead; it needs at least one of each.
  const int min_passes = spans != nullptr ? 2 : 1;
  for (int pass = 0;
       static_cast<int>(passes.size()) < min_passes || now_s() < deadline;
       ++pass) {
    Pass tot;
    tot.decorated = spans != nullptr && pass % 2 == 1;
    Scope pass_span(spans, tot.decorated ? "pass.traced" : "pass.untraced");
    for (std::size_t k = 0; k < n_apps; ++k) {
      const std::size_t i = order[k];
      const cw::Workload& w = *spec.apps[i];
      const bool corrupt = !cfg.inject.empty() && !corrupted;
      corrupted = corrupted || corrupt;
      const bool native_first = (pass + static_cast<int>(k)) % 2 == 0;
      const double native_budget =
          std::max(kNativeMinSeconds, kNativeShare * last_inst[i]);
      AppRun r = run_in_child([&] {
        return measure_app(spec, cfg, w, expected[i], ck, native_first,
                           tot.decorated, corrupt, native_budget);
      });
      last_inst[i] = r.inst_s;
      out.attempt(r.why.empty(), w.name + ": " + r.why);
      tot.add(r);
      app_native[i].push_back(r.native_s);
      (tot.decorated ? app_traced : app_inst)[i].push_back(r.inst_s);
      peak_bytes = std::max(peak_bytes, r.peak_bytes);
      rss_bytes = std::max(rss_bytes, r.rss_bytes);
      if (spans != nullptr) {
        spans->import(r.spans, pass_span.id());
        std::istringstream m(r.metrics);
        ctl::merge_metrics(metrics, ctl::read_metrics(m));
        cycles += r.cycles;
        instructions += r.instructions;
        if (r.cycles > 0) traced_accesses += static_cast<double>(r.accesses);
        access_ns.insert(access_ns.end(), r.access_ns.begin(), r.access_ns.end());
        loop_ns.insert(loop_ns.end(), r.loop_ns.begin(), r.loop_ns.end());
        drain_ns.insert(drain_ns.end(), r.drain_ns.begin(), r.drain_ns.end());
      }
    }
    out.say("pass " + std::to_string(pass) + (tot.decorated ? " (decorated)" : "") +
            ": setup " + fmt(tot.setup_s) + " s, instrumented " +
            fmt(tot.inst_s) + " s, native " + fmt(tot.native_s) + " s");
    passes.push_back(tot);
  }

  const Accuracy acc = accuracy_leg(spec, cfg, out);

  // Each app's best pass (see best()), summed over the mix.
  std::vector<double> setup;
  for (const Pass& ps : passes) setup.push_back(ps.setup_s);
  double accesses_mix = 0.0, inst_mix = 0.0, native_mix = 0.0, traced_mix = 0.0;
  for (std::size_t i = 0; i < n_apps; ++i) {
    accesses_mix += static_cast<double>(expected[i]);
    inst_mix += best(app_inst[i]);
    native_mix += best(app_native[i]);
    traced_mix += best(app_traced[i]);
  }
  const double events_per_s = accesses_mix / inst_mix;
  const double slowdown = inst_mix / native_mix;
  const double rss_mb = rss_bytes * 1e-6;
  const auto n = static_cast<double>(passes.size());
  const Pass& last = passes.back();
  const double ok_frac =
      1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted);

  out.say("workload " + cfg.workload + ": " + std::to_string(n_apps) +
          " apps x " + std::to_string(passes.size()) + " passes, " +
          std::to_string(cfg.threads) + " threads, one process per app run");
  if (spans == nullptr) {
    out.put("setup_s", median(setup));
    out.put("events_per_s", events_per_s);
    out.put("slowdown_x", slowdown);
    out.put("profiler_peak_mb", peak_bytes * 1e-6);
    out.put("rss_peak_mb", rss_mb);
    out.put("ok_frac", ok_frac);
  } else {
    const double flushes = snapshot_value(metrics, "sink.batch.flushes");
    const double batch = spec.popts.batch_size;
    std::vector<double> native_ms;
    for (const Pass& ps : passes) native_ms.push_back(ps.native_s * 1e3);

    out.put("workloads.native_ms", median(native_ms));
    out.put("threading.team_start_ms", spans->total_ms("threading.team_start") / n);
    out.put("core.profiler_new_ms", spans->total_ms("core.profiler_new") / n);
    out.put("core.on_access_ns.p50", quantile(access_ns, 0.5));
    out.put("core.on_access_ns.p99", quantile(access_ns, 0.99));
    out.put("core.on_loop_ns.p50", quantile(loop_ns, 0.5));
    out.put("core.on_loop_ns.p99", quantile(loop_ns, 0.99));
    out.put("core.on_drain_ns.p50", quantile(drain_ns, 0.5));
    out.put("core.on_drain_ns.p99", quantile(drain_ns, 0.99));
    out.put("core.batch_fill",
            flushes > 0 ? snapshot_value(metrics, "sink.batch.events") / (flushes * batch) : 0.0);
    out.put("core.batch_partial_frac",
            flushes > 0 ? snapshot_value(metrics, "sink.batch.partial") / flushes : 0.0);
    out.put("core.finalize_ms", spans->total_ms("core.finalize") / n);
    out.put("core.accesses", static_cast<double>(last.accesses));
    out.put("core.dependencies", static_cast<double>(last.dependencies));
    out.put("core.mem_peak_mb", peak_bytes * 1e-6);
    out.put("core.dropped_events", static_cast<double>(last.dropped));
    out.put("core.recorder.epochs_sealed", static_cast<double>(last.epochs_sealed));
    out.put("core.recorder.epochs_dropped", static_cast<double>(last.epochs_dropped));
    out.put("core.phase.windows", static_cast<double>(last.phase_windows));
    out.put("core.report_ms", spans->total_ms("core.report") / n);
    out.put("sigmem.matrix_l1_err", acc.l1);
    out.put("sigmem.accuracy_apps", acc.apps);
    out.put("resilience.sink_new_ms", spans->total_ms("resilience.sink_new") / n);
    out.put("resilience.guard.checks", snapshot_value(metrics, "guard.checks") / n);
    out.put("resilience.sink.reentrant_drops", static_cast<double>(last.reentrant));
    out.put("resilience.sink.suppressed", static_cast<double>(last.suppressed));
    out.put("resilience.checkpoint.written", static_cast<double>(last.checkpoints));
    out.put("resilience.checkpoint.write_us.p50",
            snapshot_quantile(metrics, "checkpoint.write_us", 0.5));
    out.put("resilience.checkpoint.write_us.p99",
            snapshot_quantile(metrics, "checkpoint.write_us", 0.99));
    out.put("resilience.checkpoint.bytes", static_cast<double>(last.checkpoint_bytes));
    out.put("resilience.sidecar.written",
            snapshot_value(metrics, "recorder.sidecar_written") / n);
    out.put("resilience.load_checkpoint_ms",
            spans->total_ms("resilience.load_checkpoint") / n);
    out.put("telemetry.perf.reads", snapshot_value(metrics, "perf.reads") / n);
    out.put("telemetry.perf.cycles_per_event",
            traced_accesses > 0 ? cycles / traced_accesses : 0.0);
    out.put("telemetry.perf.ipc", cycles > 0 ? instructions / cycles : 0.0);
    out.put("telemetry.perf.unavailable", snapshot_value(metrics, "perf.unavailable") / n);
    out.put("trace_overhead_frac", 1.0 - inst_mix / traced_mix);
    out.say("sampled sink calls: " + std::to_string(access_ns.size()) + " on_access, " +
            std::to_string(loop_ns.size()) + " loop, " +
            std::to_string(drain_ns.size()) + " drain");
  }

  for (std::size_t i = 0; i < n_apps; ++i) {
    const std::vector<double>& t = app_inst[i];
    out.say("  " + spec.apps[i]->name + ": instrumented best " +
            fmt(best(t) * 1e3) + " ms (median " + fmt(median(t) * 1e3) +
            "), native best " + fmt(best(app_native[i]) * 1e3) +
            " ms, slowdown " + fmt(best(t) / best(app_native[i])) + " x");
  }
  // The human table: every end-to-end metric of the benchmark by name.
  out.say("setup_s            " + fmt(median(setup)) + " s (median over passes)");
  out.say("events_per_s       " + fmt(events_per_s) + " events/s");
  out.say("slowdown_x         " + fmt(slowdown) +
          " x (instrumented / native, best pass per app, summed over the mix)");
  out.say("profiler_peak_mb   " + fmt(peak_bytes * 1e-6) + " MB");
  out.say("rss_peak_mb        " + fmt(rss_mb) + " MB (max over app processes)");
  out.say("matrix_l1_err      " + fmt(acc.l1, 6) + " ratio (signature vs exact, " +
          std::to_string(acc.apps) + " apps)");
  std::string excluded;
  for (const std::string& e : acc.excluded) excluded += " " + e;
  if (!excluded.empty()) out.say("  excluded from matrix_l1_err (streams differ):" + excluded);
  out.say("merge_epochs_per_s n/a (serve-ship only)");
  out.say("ack_p50_ms         n/a (serve-ship only)");
  out.say("ack_p99_ms         n/a (serve-ship only)");
  out.say("recovery_s         n/a (serve-ship only)");
  out.say("failed_frac        " + fmt(1.0 - ok_frac) + " ratio (" +
          std::to_string(out.failed) + " failed of " +
          std::to_string(out.attempted) + " attempted)");
  out.say("ok_frac            " + fmt(ok_frac) + " ratio");
  return out;
}

}  // namespace commbench
