// commscope — the command-line front-end.
//
// Subcommands:
//   commscope list
//       Show the available workload replicas.
//   commscope run <workload> [options]
//       Profile a workload and print the nested communication report.
//   commscope replay <trace-file> [options]
//       Profile a recorded event trace (see --save-trace).
//   commscope resume <snapshot-file> [options]
//       Report from a crash/periodic checkpoint (see --checkpoint).
//   commscope classify <matrix-file>
//       Classify a saved communication matrix (matrix_io format).
//   commscope map <matrix-file> [--sockets=S --cores=C --smt=T]
//       Compute a communication-aware thread mapping for a saved matrix.
//   commscope stress [--seed=N --seeds=K --threads=T --steps=N
//                     --mode=lockstep|free|both --sampling=R --no-churn
//                     --batch=N]
//       Schedule-fuzzing self-verification: run seeded concurrent schedules
//       (with thread churn) through the guarded pipeline and differentially
//       check the matrix against a serial shadow-oracle replay.
//   commscope metrics <snapshot-file...>
//       Read --metrics-out snapshots, merge them (counters/histograms sum,
//       gauges take the max) and print the aggregate table.
//   commscope top <workload> [run options] [--interval=MS]
//       Run a workload with the guarded pipeline and refresh a live view of
//       the profiler's own activity (events/s, memory, drops) while it runs.
//   commscope report <epochs-file> [--format=text|json|html] [--out=FILE]
//       Render a recorded epoch timeline (--epochs-out / checkpoint sidecar)
//       as a terminal summary, JSON document or self-contained HTML page.
//   commscope diff <A> <B> [--threshold-l1=F --threshold-cell=F]
//                  [--bench --threshold=F --floor-speedup=F --floor-batch=N]
//       Compare two runs: epoch files, matrix files, or (--bench) ingest
//       bench JSON. --floor-speedup additionally requires the fresh sweep's
//       batch --floor-batch (default 64) point to report at least that
//       speedup. Exits 0 when within thresholds, 3 on regression — the
//       CI gate.
//   commscope serve --socket=PATH [--mem-budget=BYTES --reap-ms=T
//                    --max-sessions=N --sessions=N --idle-exit-ms=T
//                    --epochs-out=FILE --metrics-out=FILE --timeout=SEC]
//       Profile-as-a-service daemon: accept epoch streams from many
//       concurrent clients (see --ship-to below) on a Unix socket, merge
//       them crash-isolated per session, and write the merged timeline /
//       metrics on exit. --scrape turns the command into a client that
//       pulls a metrics snapshot from a live daemon instead (--prometheus
//       asks for Prometheus text exposition format).
//   commscope trace --merge <trace.json...> [--out=FILE]
//       Stitch per-process --trace-out files (client runs + the serve
//       daemon) into one Chrome trace, shifting each client onto the
//       daemon's timeline via the handshake clock-offset estimate.
//   commscope health <snapshot-file...> | health --connect=SOCKET
//       SLO summary over metric snapshots (or a live daemon's scrape
//       endpoint): drop/degrade/reap/WAL-fallback counters. Exit 0 when
//       healthy, 3 on a breach.
//
// Shipping options (run/replay):
//   --ship-to=SOCKET            stream the sealed epoch timeline to a
//                               `commscope serve` daemon after the run;
//                               unreachable daemons cost bounded retries,
//                               then the epochs spill to a sidecar file the
//                               next shipment replays
//   --ship-session=N            session id for dedupe (default: pid)
//
// Flight-recorder options (run/replay/top):
//   --epoch-every=N             seal an epoch every N access events
//   --epoch-ms=T                seal every T milliseconds
//   --epoch-ring=N              epoch ring capacity (default 512)
//   --epochs-out=FILE           write the surviving timeline on exit
//   --epochs=N                  (replay only) re-slice the trace into N
//                               equal-access epochs
//
// Observability options (run/replay/stress/top):
//   --quiet, -q                 suppress non-essential stdout (explicit
//                               outputs like --metrics-out still written)
//   --metrics-out=FILE          write the telemetry registry snapshot
//   --trace-out=FILE            capture the profiler's own timeline and
//                               write it on exit
//   --trace-format=chrome|text  trace encoding (default chrome: trace-event
//                               JSON for chrome://tracing / Perfetto)
//
// Common options for run/replay:
//   --backend=signature|exact   detection backend   (default signature)
//   --threads=N                 worker/matrix dimension (default 8)
//   --scale=dev|small|large     input scale         (default dev)
//   --slots=N                   signature slots     (default 2^20)
//   --fp-rate=F                 bloom FP target     (default 0.001)
//   --classify                  count WAR/WAW/RAR too
//   --sparse                    sparse region matrices
//   --phases=BYTES              phase window volume (0 = off)
//   --heatmaps=N                render the N hottest region matrices
//   --csv=FILE                  write the per-region CSV
//   --save-matrix=FILE          save the program matrix (matrix_io)
//   --save-trace=FILE           record and save the event trace (run only)
//   --pattern                   classify the program matrix
//   --dvfs                      print a frequency plan (needs --phases)
//
// Resilience options for run/replay:
//   --mem-budget=BYTES          profiler memory budget (K/M/G suffixes); on
//                               breach the degradation ladder fires instead
//                               of the run dying
//   --event-budget=N            stop counting access events after N events
//   --checkpoint=FILE           crash-safe snapshot file; also the emergency
//                               dump target on SIGSEGV/SIGABRT/SIGINT
//   --checkpoint-every=N        events between snapshots (default 65536)
//   --timeout=SEC               watchdog: dump the last snapshot and exit
//                               124 after SEC seconds of wall clock
// Deterministic faults for testing come from $COMMSCOPE_FAULT (see
// resilience/fault_injector.hpp).
//
// Exit codes: 0 success, 1 runtime failure (bad file, failed verification),
// 2 usage error (unknown flag/command, malformed flag value), 3 a valid
// comparison that failed its contract — a `commscope diff` regression or a
// `commscope health` SLO breach, 124 watchdog timeout, 128+N death by
// signal N (emergency snapshot written first when --checkpoint names a
// file; the message says whether one was saved).
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "core/comm_diff.hpp"
#include "core/epoch_io.hpp"
#include "core/matrix_io.hpp"
#include "core/profiler.hpp"
#include "core/report.hpp"
#include "core/timeline_report.hpp"
#include "instrument/loop_registry.hpp"
#include "instrument/trace.hpp"
#include "mapping/mapper.hpp"
#include "patterns/classifier.hpp"
#include "power/dvfs.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/crash_guard.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/guarded_sink.hpp"
#include "resilience/resource_guard.hpp"
#include "resilience/stress.hpp"
#include "serve/server.hpp"
#include "serve/shipper.hpp"
#include "support/args.hpp"
#include "support/env.hpp"
#include "support/table.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/self_profile.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/trace_merge.hpp"
#include "threading/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace cc = commscope::core;
namespace ci = commscope::instrument;
namespace cm = commscope::mapping;
namespace cp = commscope::patterns;
namespace cr = commscope::resilience;
namespace cs = commscope::support;
namespace csv = commscope::serve;
namespace ct = commscope::threading;
namespace ctl = commscope::telemetry;
namespace cw = commscope::workloads;

namespace {

// Flag vocabulary, grouped the way commands compose it. Every subcommand
// accepts exactly the union of its groups; anything else is a usage error
// (exit 2) — uniformly, so a typo'd flag never silently profiles with a
// default.
const std::vector<std::string> kProfileFlags = {
    "backend", "threads", "scale",       "slots",      "fp-rate",    "classify",
    "sparse",  "phases",  "batch",       "epoch-every", "epoch-ms",
    "epoch-ring", "epochs-out", "perf"};
const std::vector<std::string> kOutputFlags = {
    "heatmaps", "csv", "save-matrix", "pattern", "dvfs"};
const std::vector<std::string> kResilienceFlags = {
    "mem-budget", "event-budget", "checkpoint", "checkpoint-every", "timeout"};
const std::vector<std::string> kObservabilityFlags = {
    "quiet", "metrics-out", "trace-out", "trace-format"};

std::vector<std::string> flags_union(
    std::initializer_list<std::vector<std::string>> groups,
    std::initializer_list<const char*> extra = {}) {
  std::vector<std::string> all;
  for (const auto& g : groups) all.insert(all.end(), g.begin(), g.end());
  for (const char* e : extra) all.emplace_back(e);
  return all;
}

/// Per-subcommand accepted flags (the union of the groups above plus each
/// command's own extras).
const std::vector<std::string>& known_flags_for(const std::string& cmd) {
  static const std::map<std::string, std::vector<std::string>> table = {
      {"list", {}},
      {"run",
       flags_union({kProfileFlags, kOutputFlags, kResilienceFlags,
                    kObservabilityFlags},
                   {"save-trace", "ship-to", "ship-session"})},
      {"replay",
       flags_union({kProfileFlags, kOutputFlags, kResilienceFlags,
                    kObservabilityFlags},
                   {"epochs", "ship-to", "ship-session"})},
      {"resume", {"pattern", "save-matrix", "heatmaps"}},
      {"classify", {}},
      {"map", {"sockets", "cores", "smt"}},
      {"stress",
       flags_union({kObservabilityFlags},
                   {"seed", "seeds", "threads", "steps", "mode", "sampling",
                    "no-churn", "batch"})},
      {"metrics", {"metrics-out", "prometheus"}},
      {"top", flags_union({kProfileFlags, kObservabilityFlags},
                          {"interval", "connect"})},
      {"report", {"format", "out", "matrix", "metrics", "title"}},
      {"diff",
       {"bench", "threshold", "floor-speedup", "floor-batch", "threshold-l1",
        "threshold-cell", "quiet"}},
      {"serve",
       {"socket", "mem-budget", "reap-ms", "max-sessions", "sessions",
        "idle-exit-ms", "epochs-out", "metrics-out", "quiet", "scrape",
        "prometheus", "timeout", "state-dir", "fsync", "fsync-n",
        "compact-every", "no-recover", "trace-out", "trace-format"}},
      {"trace", {"merge", "out"}},
      {"health", {"connect", "quiet"}},
  };
  static const std::vector<std::string> none;
  const auto it = table.find(cmd);
  return it == table.end() ? none : it->second;
}

const char* kCommandList =
    "list, run, replay, resume, classify, map, stress, metrics, top, "
    "report, diff, serve, trace, health";

int usage() {
  std::cerr
      << "usage: commscope <command> [args]\n"
         "\n"
         "profile:\n"
         "  list                      show the available workload replicas\n"
         "  run <workload>            profile a workload, print the nested report\n"
         "  replay <trace-file>       profile a recorded event trace (--save-trace)\n"
         "  resume <snapshot-file>    report from a crash/periodic checkpoint\n"
         "\n"
         "analyze:\n"
         "  classify <matrix-file>    classify a saved communication matrix\n"
         "  map <matrix-file>         communication-aware thread mapping\n"
         "  report <epochs-file>      render an epoch timeline (text/json/html)\n"
         "  diff <A> <B>              compare two runs; exit 3 on regression\n"
         "\n"
         "observe & verify:\n"
         "  stress                    schedule-fuzzing self-verification\n"
         "  metrics <snapshot...>     merge + print telemetry snapshots\n"
         "                            (--prometheus emits text exposition)\n"
         "  top <workload>            live view of the profiler while it runs\n"
         "                            (--connect=SOCKET watches a serve\n"
         "                            daemon's scrape endpoint instead)\n"
         "  trace --merge <json...>   stitch client + daemon trace files into\n"
         "                            one Chrome trace (clock-offset aware;\n"
         "                            --out=FILE, default stdout)\n"
         "  health <snapshot...>      SLO summary from drop/degrade/reap/WAL\n"
         "                            counters (--connect=SOCKET scrapes a\n"
         "                            live daemon); exit 0 healthy, 3 breach\n"
         "  serve --socket=PATH       multi-client epoch aggregation daemon\n"
         "                            (--scrape pulls metrics from a live one,\n"
         "                            --scrape --prometheus in text exposition\n"
         "                            format for a Prometheus scraper;\n"
         "                            clients ship with run --ship-to=PATH;\n"
         "                            --state-dir=DIR makes it crash-durable:\n"
         "                            --fsync=per-ack|per-n|on-compaction,\n"
         "                            --fsync-n=N, --compact-every=N,\n"
         "                            --no-recover discards persisted state;\n"
         "                            SIGTERM/SIGINT drain gracefully, exit 0)\n"
         "\n"
         "common run/replay/top flags: --threads=N --scale=dev|small|large\n"
         "  --backend=signature|exact --batch=N --phases=BYTES\n"
         "  --epoch-every=N --epoch-ms=T --epoch-ring=N\n"
         "  --epochs-out=FILE --quiet --metrics-out=FILE --trace-out=FILE\n"
         "  --perf (per-thread hardware counters: cycles/instructions/\n"
         "  LLC-misses/HITM attributed to loops and epochs; degrades to n/a\n"
         "  where perf_event_open is unavailable)\n"
         "resilience (run/replay): --mem-budget=BYTES --event-budget=N\n"
         "  --checkpoint=FILE --checkpoint-every=N --timeout=SEC\n"
         "run `commscope <command>` with no arguments for its argument shape.\n";
  return 2;
}

// --- observability plumbing -------------------------------------------------

/// Swallows non-essential stdout under --quiet. Explicitly requested outputs
/// (--metrics-out, --trace-out, --csv, ...) are never routed through this.
class NullBuf final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
};

std::ostream& out_stream(bool quiet) {
  static NullBuf buf;
  static std::ostream null(&buf);
  return quiet ? null : std::cout;
}

ctl::Tracer::LoopResolver loop_resolver() {
  return [](std::uint32_t id) {
    return ci::LoopRegistry::instance().label(id);
  };
}

/// Starts a trace capture when --trace-out was given (and validates the
/// format up front so a typo fails before the run, not after).
void maybe_enable_trace(const cs::ArgParser& args) {
  if (!args.has("trace-out")) return;
  const std::string fmt = args.get("trace-format", "chrome");
  if (fmt != "chrome" && fmt != "text") {
    throw std::invalid_argument("--trace-format: expected chrome or text");
  }
  ctl::Tracer::enable();
}

/// Writes the explicitly requested observability outputs. Both are honored
/// under --quiet — asking for a file is the opposite of asking for silence.
int write_observability_outputs(const cs::ArgParser& args, std::ostream& log) {
  if (args.has("trace-out")) {
    ctl::Tracer::disable();
    std::ofstream out(args.get("trace-out"));
    if (!out) {
      std::cerr << "cannot write " << args.get("trace-out") << "\n";
      return 1;
    }
    if (args.get("trace-format", "chrome") == "text") {
      ctl::Tracer::write_text(out, loop_resolver());
    } else {
      ctl::Tracer::write_chrome_trace(out, loop_resolver());
    }
    log << ctl::Tracer::captured() << " trace events written to "
        << args.get("trace-out") << "\n";
  }
  if (args.has("metrics-out")) {
    std::ofstream out(args.get("metrics-out"));
    if (!out) {
      std::cerr << "cannot write " << args.get("metrics-out") << "\n";
      return 1;
    }
    ctl::write_metrics(out);
    log << "metrics written to " << args.get("metrics-out") << "\n";
  }
  return 0;
}

cc::ProfilerOptions profiler_options(const cs::ArgParser& args, int threads) {
  cc::ProfilerOptions o;
  o.max_threads = threads;
  o.signature_slots = args.get_int_as<std::size_t>("slots", 1 << 20);
  o.fp_rate = args.get_double_strict("fp-rate", 0.001);
  const std::string backend = args.get("backend", "signature");
  if (backend != "signature" && backend != "exact") {
    throw std::invalid_argument("--backend: expected signature or exact");
  }
  o.backend = backend == "exact" ? cc::Backend::kExact
                                 : cc::Backend::kAsymmetricSignature;
  o.classify_dependences = args.has("classify");
  o.sparse_region_matrices = args.has("sparse");
  o.phase_window_bytes = args.get_int_as<std::uint64_t>("phases", 0);
  o.batch_size = args.get_int_as<std::uint32_t>("batch", 0);
  o.epoch_accesses = args.get_int_as<std::uint64_t>("epoch-every", 0);
  o.epoch_millis = args.get_int_as<std::uint32_t>("epoch-ms", 0);
  o.epoch_ring = args.get_int_as<std::uint32_t>("epoch-ring", 0);
  o.perf = args.has("perf");
  return o;
}

/// Writes the flight-recorder timeline when --epochs-out was given. Shared
/// by run/replay/top; called after finalize so the last partial epoch has
/// been sealed.
int write_epochs_output(const cs::ArgParser& args, cc::Profiler& profiler,
                        std::ostream& log) {
  if (!args.has("epochs-out")) return 0;
  const cc::EpochTimeline timeline = profiler.epoch_timeline();
  std::ofstream out(args.get("epochs-out"));
  if (!out) {
    std::cerr << "cannot write " << args.get("epochs-out") << "\n";
    return 1;
  }
  cc::write_epochs(out, timeline);
  log << timeline.epochs.size() << " epoch(s) written to "
      << args.get("epochs-out");
  if (timeline.dropped > 0) {
    log << " (" << timeline.dropped << " older epoch(s) overwritten)";
  }
  log << "\n";
  return 0;
}

/// Ships the sealed epoch timeline to a `commscope serve` daemon when
/// --ship-to was given. Shipping is strictly best-effort: an unreachable or
/// misbehaving daemon costs bounded retries and a sidecar spill, never the
/// run's exit code.
void maybe_ship_epochs(const cs::ArgParser& args, cc::Profiler& profiler,
                       int threads, std::ostream& log) {
  if (!args.has("ship-to")) return;
  // Read outside the try: a malformed session id is a usage error (exit 2),
  // not a shipping failure.
  const auto session = args.get_int_as<std::uint64_t>("ship-session", 0);
  try {
    csv::ShipperOptions opts;
    opts.socket_path = args.get("ship-to");
    opts.session_id = session;
#if defined(__unix__) || defined(__APPLE__)
    if (opts.session_id == 0) {
      opts.session_id = static_cast<std::uint64_t>(::getpid());
    }
#endif
    if (opts.session_id == 0) opts.session_id = 1;
    opts.threads = threads;
    opts.spill_path = opts.socket_path + "." +
                      std::to_string(opts.session_id) + ".spill.epochs";
    std::unique_ptr<cr::FaultInjector> injector;
    if (const auto plan = cr::FaultInjector::plan_from_env()) {
      injector = std::make_unique<cr::FaultInjector>(*plan);
      opts.injector = injector.get();
    }
    csv::EpochShipper shipper(opts);
    if (shipper.ship(profiler.epoch_timeline())) {
      shipper.bye();
      log << "shipped " << shipper.stats().shipped << " epoch(s) to "
          << opts.socket_path << " (session " << opts.session_id << ")\n";
    } else {
      log << "daemon " << opts.socket_path << " unreachable; spilled "
          << shipper.stats().offered << " epoch(s) to " << opts.spill_path
          << "\n";
    }
  } catch (const std::exception& e) {
    log << "epoch shipping failed: " << e.what() << "\n";
  }
}

cs::Scale parse_scale(const std::string& s) {
  if (s == "dev") return cs::Scale::kDev;
  if (s == "small") return cs::Scale::kSmall;
  if (s == "large") return cs::Scale::kLarge;
  throw std::invalid_argument("--scale: expected dev, small or large");
}

/// The resilience stack wired around a profiler for one run/replay. Only
/// materialized when a resilience flag (or $COMMSCOPE_FAULT) asks for it —
/// a plain run keeps the exact event path it always had.
struct ResilienceStack {
  std::unique_ptr<cr::FaultInjector> injector;
  std::unique_ptr<cr::ResourceGuard> guard;
  std::unique_ptr<cr::GuardedSink> sink;
  cs::MemoryTracker* observed = nullptr;
  bool watchdog = false;

  ResilienceStack() = default;
  ResilienceStack(ResilienceStack&& o) noexcept
      : injector(std::move(o.injector)),
        guard(std::move(o.guard)),
        sink(std::move(o.sink)),
        observed(std::exchange(o.observed, nullptr)),
        watchdog(std::exchange(o.watchdog, false)) {}
  ResilienceStack& operator=(ResilienceStack&&) = delete;

  ~ResilienceStack() {
    if (observed != nullptr) observed->set_observer(nullptr);
    if (sink != nullptr) {
      cr::CrashGuard::instance().cancel_watchdog();
      cr::CrashGuard::instance().disarm();
    }
  }
};

/// Builds the stack, or returns one with a null sink when no resilience
/// feature was requested.
ResilienceStack make_resilience(const cs::ArgParser& args,
                                cc::Profiler& profiler) {
  ResilienceStack stack;

  cr::GuardOptions gopts;
  gopts.mem_budget_bytes = args.get_bytes_strict("mem-budget", 0);
  gopts.event_budget = args.get_int_as<std::uint64_t>("event-budget", 0);

  cr::GuardedSink::Options sopts;
  sopts.checkpoint_path = args.get("checkpoint", "");
  sopts.checkpoint_every =
      args.get_int_as<std::uint64_t>("checkpoint-every", 65536);
  if (sopts.checkpoint_path.empty()) sopts.checkpoint_every = 0;

  const double timeout = args.get_double_strict("timeout", 0.0);
  const std::optional<cr::FaultPlan> plan = cr::FaultInjector::plan_from_env();

  // plan->any() (not plan.has_value()): a COMMSCOPE_FAULT consisting only of
  // telemetry-layer clauses (perf-open-fail — the no-PMU CI environment)
  // must not wrap every run in the resilience stack.
  const bool wanted = gopts.mem_budget_bytes != 0 || gopts.event_budget != 0 ||
                      !sopts.checkpoint_path.empty() || timeout > 0.0 ||
                      (plan.has_value() && plan->any());
  if (!wanted) return stack;

  if (plan.has_value()) {
    stack.injector = std::make_unique<cr::FaultInjector>(*plan);
    profiler.memory().set_observer(stack.injector.get());
    stack.observed = &profiler.memory();
  }
  stack.guard = std::make_unique<cr::ResourceGuard>(
      gopts, profiler, stack.injector.get());

  cr::CrashGuard& crash = cr::CrashGuard::instance();
  crash.arm(sopts.checkpoint_path);
  if (timeout > 0.0) {
    crash.start_watchdog(timeout);
    stack.watchdog = true;
  }
  stack.sink = std::make_unique<cr::GuardedSink>(
      profiler, stack.guard.get(), sopts, stack.injector.get(), &crash);
  return stack;
}

/// Shared post-profiling output path for run/replay. The caller has already
/// finalized the sink (which may write the final checkpoint). Non-essential
/// prose goes to `log` (a null stream under --quiet); requested files are
/// always written.
int emit_results(const cs::ArgParser& args, cc::Profiler& profiler,
                 int threads, std::ostream& log) {
  cc::ReportOptions ropts;
  ropts.heatmap_top = args.get_int_as<int>("heatmaps", 0);
  ropts.hide_quiet_regions = true;
  cc::print_report(log, profiler, ropts);

  if (args.has("csv")) {
    std::ofstream out(args.get("csv"));
    if (!out) {
      std::cerr << "cannot write " << args.get("csv") << "\n";
      return 1;
    }
    cc::write_csv(out, profiler.regions());
    log << "region CSV written to " << args.get("csv") << "\n";
  }
  if (args.has("save-matrix")) {
    std::ofstream out(args.get("save-matrix"));
    if (!out) {
      std::cerr << "cannot write " << args.get("save-matrix") << "\n";
      return 1;
    }
    cc::write_matrix(out, profiler.communication_matrix().trimmed(threads));
    log << "matrix written to " << args.get("save-matrix") << "\n";
  }
  if (args.has("pattern")) {
    cp::GeneratorOptions gen;
    gen.threads = threads;
    cp::KnnClassifier clf(5);
    clf.train(cp::featurize(cp::make_corpus(40, gen, 20260704)));
    log << "detected pattern: "
        << cp::to_string(
               clf.predict(profiler.communication_matrix().trimmed(threads)))
        << "\n";
  }
  if (profiler.options().phase_window_bytes > 0) {
    const auto phases =
        cc::detect_phases(profiler.phase_timeline(), 0.75,
                          cc::PhaseMetric::kOffsetCosine);
    log << "phases detected: " << phases.size() << "\n";
    const std::uint64_t dropped = profiler.recorder().phase_windows_dropped();
    if (dropped > 0) {
      log << dropped << " oldest phase window(s) overwritten\n";
    }
    if (args.has("dvfs")) {
      const commscope::power::DvfsPlan plan = commscope::power::plan_dvfs(
          profiler.phase_timeline(), profiler.phase_window_accesses());
      log << "DVFS plan:\n" << plan.to_string();
    }
  }
  return 0;
}

int cmd_list() {
  cs::Table t({"workload", "description"});
  for (const cw::Workload& w : cw::registry()) {
    t.add_row({w.name, w.description});
  }
  t.print(std::cout);
  return 0;
}

int cmd_run(const cs::ArgParser& args) {
  if (args.positional().size() < 2) return usage();
  const cw::Workload* w = cw::find(args.positional()[1]);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << args.positional()[1]
              << "' (try: commscope list)\n";
    return 1;
  }
  const bool quiet = args.has("quiet");
  std::ostream& log = out_stream(quiet);
  const int threads = args.get_int_as<int>("threads", 8);
  const cs::Scale scale = parse_scale(args.get("scale", "dev"));
  maybe_enable_trace(args);
  auto profiler = std::make_unique<cc::Profiler>(profiler_options(args, threads));
  ResilienceStack resilience = make_resilience(args, *profiler);
  ci::AccessSink* sink = resilience.sink != nullptr
                             ? static_cast<ci::AccessSink*>(resilience.sink.get())
                             : profiler.get();
  ct::ThreadTeam team(threads);

  ctl::SelfOverhead overhead;
  const auto t0 = std::chrono::steady_clock::now();
  if (args.has("save-trace")) {
    ci::TraceRecorder recorder;
    if (!w->run(scale, team, &recorder).ok) {
      std::cerr << w->name << ": verification FAILED\n";
      return 1;
    }
    std::ofstream out(args.get("save-trace"));
    if (!out) {
      std::cerr << "cannot write " << args.get("save-trace") << "\n";
      return 1;
    }
    ci::write_trace(out, recorder.events());
    log << recorder.size() << " events written to " << args.get("save-trace")
        << "\n";
    ci::replay(recorder.events(), *sink);  // replay() finalizes the sink itself
  } else {
    ctl::ScopedSpan span(w->name.c_str(), ctl::SpanCat::kRun);
    if (!w->run(scale, team, sink).ok) {
      std::cerr << w->name << ": verification FAILED\n";
      return 1;
    }
  }
  overhead.instrumented_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!args.has("save-trace")) sink->finalize();

  // Self-measured Fig. 4 factor: re-run the same kernel against the
  // NullSink-compiled native twin. Skipped under --quiet (the paragraph
  // would be swallowed anyway) and for --save-trace runs (the instrumented
  // leg there includes trace IO + replay, so the ratio would be off).
  if (!quiet && !args.has("save-trace")) {
    const auto n0 = std::chrono::steady_clock::now();
    (void)w->run(scale, team, nullptr);
    overhead.native_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - n0)
            .count();
  }
  overhead.profiler_peak_bytes = profiler->memory().peak();
  overhead.rss_peak_bytes = ctl::peak_rss_bytes();

  int rc = emit_results(args, *profiler, threads, log);
  if (rc != 0) return rc;
  rc = write_epochs_output(args, *profiler, log);
  if (rc != 0) return rc;
  maybe_ship_epochs(args, *profiler, threads, log);
  ctl::report_self_overhead(log, overhead);
  return write_observability_outputs(args, log);
}

int cmd_replay(const cs::ArgParser& args) {
  if (args.positional().size() < 2) return usage();
  std::ifstream in(args.positional()[1]);
  if (!in) {
    std::cerr << "cannot read " << args.positional()[1] << "\n";
    return 1;
  }
  const std::vector<ci::TraceEvent> events = ci::read_trace(in);
  int max_tid = 0;
  for (const ci::TraceEvent& e : events) max_tid = std::max(max_tid, int{e.tid});
  const int threads = args.get_int_as<int>("threads", std::max(2, max_tid + 1));
  std::ostream& log = out_stream(args.has("quiet"));
  maybe_enable_trace(args);
  cc::ProfilerOptions popts = profiler_options(args, threads);
  // --epochs=N: re-slice the trace into N equal-access epochs. Replay is
  // single-threaded in trace order (micro-batches drain at tid switches), so
  // the recorder sees the identical global access/dependency order at any
  // --batch size — the resulting timeline is byte-identical.
  const std::int64_t slices = args.get_int_strict("epochs", 0);
  if (slices < 0) throw std::invalid_argument("--epochs: expected N >= 1");
  if (slices > 0) {
    std::uint64_t accesses = 0;
    for (const ci::TraceEvent& e : events) {
      if (e.kind == ci::TraceEvent::Kind::kAccess) ++accesses;
    }
    popts.epoch_accesses = std::max<std::uint64_t>(
        1, (accesses + static_cast<std::uint64_t>(slices) - 1) /
               static_cast<std::uint64_t>(slices));
    if (popts.epoch_ring == 0) {
      popts.epoch_ring = static_cast<std::uint32_t>(std::min<std::int64_t>(
          slices + 1, cc::kMaxEpochRing));
    }
    popts.epoch_replay = true;
  }
  auto profiler = std::make_unique<cc::Profiler>(popts);
  ResilienceStack resilience = make_resilience(args, *profiler);
  ci::AccessSink* sink = resilience.sink != nullptr
                             ? static_cast<ci::AccessSink*>(resilience.sink.get())
                             : profiler.get();
  ctl::SelfOverhead overhead;
  const auto t0 = std::chrono::steady_clock::now();
  ci::replay(events, *sink);  // replay() finalizes the sink itself
  overhead.instrumented_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // No native twin for a trace replay (native_seconds stays 0, so no
  // slowdown factor is claimed), but the memory half of the self-overhead
  // contract holds — replay-produced metrics snapshots carry the same
  // self.* gauges run-produced ones do.
  overhead.profiler_peak_bytes = profiler->memory().peak();
  overhead.rss_peak_bytes = ctl::peak_rss_bytes();
  log << "replayed " << events.size() << " events\n";
  int rc = emit_results(args, *profiler, threads, log);
  if (rc != 0) return rc;
  rc = write_epochs_output(args, *profiler, log);
  if (rc != 0) return rc;
  maybe_ship_epochs(args, *profiler, threads, log);
  ctl::report_self_overhead(log, overhead);
  return write_observability_outputs(args, log);
}

int cmd_resume(const cs::ArgParser& args) {
  if (args.positional().size() < 2) return usage();
  const cr::Checkpoint ck = cr::load_checkpoint(args.positional()[1]);

  std::cout << "=== CommScope profile (resumed from snapshot) ===\n";
  std::cout << "state: " << ck.meta.state << " (reason: " << ck.meta.reason
            << "), events: " << ck.meta.events << ", backend: " << ck.backend
            << ", threads: " << ck.threads << "\n";
  std::cout << "accesses: " << ck.stats.accesses << " (reads " << ck.stats.reads
            << ", writes " << ck.stats.writes
            << "), inter-thread RAW dependencies: " << ck.stats.dependencies
            << "\n";
  if (!ck.degradations.empty()) {
    std::cout << "degradations: " << ck.degradations.size()
              << " (numbers below are best-effort; see provenance)\n";
    for (const cc::DegradationEvent& d : ck.degradations) {
      std::cout << "  [event " << d.event_index << "] " << d.reason << " -> "
                << d.action << " (profiler memory "
                << cs::Table::bytes(d.mem_before) << " -> "
                << cs::Table::bytes(d.mem_after) << ")\n";
    }
  }
  std::cout << "\n";

  cs::Table t({"region", "entries", "direct", "aggregate"});
  for (std::size_t i = 0; i < ck.regions.size(); ++i) {
    const cr::CheckpointRegion& r = ck.regions[i];
    t.add_row({std::string(static_cast<std::size_t>(r.depth) * 2, ' ') + r.label,
               std::to_string(r.entries),
               cs::Table::bytes(r.direct.total()),
               cs::Table::bytes(ck.aggregate(i).total())});
  }
  t.print(std::cout);

  const cc::Matrix program = ck.program();
  if (args.has("save-matrix")) {
    std::ofstream out(args.get("save-matrix"));
    if (!out) {
      std::cerr << "cannot write " << args.get("save-matrix") << "\n";
      return 1;
    }
    cc::write_matrix(out, program);
    std::cout << "matrix written to " << args.get("save-matrix") << "\n";
  }
  if (args.has("pattern")) {
    cp::GeneratorOptions gen;
    gen.threads = ck.threads;
    cp::KnnClassifier clf(5);
    clf.train(cp::featurize(cp::make_corpus(40, gen, 20260704)));
    std::cout << "detected pattern: " << cp::to_string(clf.predict(program))
              << "\n";
  }
  const int top = args.get_int_as<int>("heatmaps", 0);
  if (top > 0 && program.total() > 0) {
    cs::print_heatmap(std::cout, program.cells(),
                      static_cast<std::size_t>(program.size()), "program");
  }
  return 0;
}

int cmd_classify(const cs::ArgParser& args) {
  if (args.positional().size() < 2) return usage();
  std::ifstream in(args.positional()[1]);
  if (!in) {
    std::cerr << "cannot read " << args.positional()[1] << "\n";
    return 1;
  }
  const cc::Matrix m = cc::read_matrix(in);
  cp::GeneratorOptions gen;
  gen.threads = m.size();
  cp::KnnClassifier knn(5);
  knn.train(cp::featurize(cp::make_corpus(40, gen, 20260704)));
  cp::NearestCentroidClassifier centroid;
  centroid.train(cp::featurize(cp::make_corpus(40, gen, 20260704)));
  std::cout << "kNN:              " << cp::to_string(knn.predict(m)) << "\n";
  std::cout << "nearest-centroid: " << cp::to_string(centroid.predict(m))
            << "\n";
  cs::print_heatmap(std::cout, m.cells(), static_cast<std::size_t>(m.size()),
                    args.positional()[1]);
  return 0;
}

int cmd_map(const cs::ArgParser& args) {
  if (args.positional().size() < 2) return usage();
  std::ifstream in(args.positional()[1]);
  if (!in) {
    std::cerr << "cannot read " << args.positional()[1] << "\n";
    return 1;
  }
  const cc::Matrix m = cc::read_matrix(in);
  const cm::Topology topo(args.get_int_as<int>("sockets", 2),
                          args.get_int_as<int>("cores", 8),
                          args.get_int_as<int>("smt", 1));
  if (m.size() > topo.hardware_threads()) {
    std::cerr << "matrix has " << m.size() << " threads but topology only "
              << topo.hardware_threads() << " hardware threads\n";
    return 1;
  }
  const cm::Mapping best = cm::best_mapping(m, topo);
  const double base =
      cm::mapping_cost(m, topo, cm::identity_mapping(m.size(), topo));
  const double cost = cm::mapping_cost(m, topo, best);
  std::cout << "topology: " << topo.describe() << "\n";
  std::cout << "identity cost " << base << " -> best mapping cost " << cost
            << " (" << cs::Table::num(base > 0 ? cost / base * 100.0 : 100, 1)
            << "%)\n";
  for (std::size_t t = 0; t < best.size(); ++t) {
    std::cout << "  T" << t << " -> hw" << best[t] << " (socket "
              << topo.socket_of(best[t]) << ")\n";
  }
  return 0;
}

// Schedule-fuzzing self-verification: seeded concurrent schedules through
// the guarded pipeline, differentially checked against the serial shadow
// oracle. Exit 0 only when every scenario matched cell-for-cell AND
// reproduced identically on a same-seed re-run.
int cmd_stress(const cs::ArgParser& args) {
  std::ostream& log = out_stream(args.has("quiet"));
  maybe_enable_trace(args);
  cr::StressOptions base;
  base.steps = args.get_int_as<std::uint64_t>("steps", 4096);
  base.sampling = args.get_double_strict("sampling", 1.0);
  base.churn = !args.has("no-churn");
  base.batch = args.get_int_as<std::uint32_t>("batch", 0);

  const std::uint64_t first_seed = args.get_int_as<std::uint64_t>("seed", 1);
  const std::int64_t seed_count = args.get_int_strict("seeds", 1);
  if (seed_count < 1) {
    throw std::invalid_argument("--seeds: expected a positive count");
  }
  std::vector<std::uint64_t> seeds;
  for (std::int64_t i = 0; i < seed_count; ++i) {
    seeds.push_back(first_seed + static_cast<std::uint64_t>(i));
  }

  // A single --threads=T pins the dimension; otherwise sweep the default
  // grid the acceptance contract names.
  std::vector<int> thread_counts;
  const int threads = args.get_int_as<int>("threads", 0);
  if (threads != 0) {
    thread_counts.push_back(threads);
  } else {
    thread_counts = {2, 4, 8};
  }

  const std::string mode = args.get("mode", "both");
  bool ok = true;
  if (mode == "both") {
    ok = cr::run_stress_sweep(seeds, thread_counts, base, log);
  } else if (mode == "lockstep" || mode == "free") {
    base.mode = mode == "lockstep" ? cr::StressMode::kLockstep
                                   : cr::StressMode::kFree;
    for (const std::uint64_t seed : seeds) {
      for (const int t : thread_counts) {
        cr::StressOptions o = base;
        o.seed = seed;
        o.threads = t;
        const cr::StressReport r = cr::run_stress(o);
        log << "seed=" << seed << " threads=" << t << " mode="
            << cr::to_string(o.mode) << " accesses=" << r.accesses
            << " churns=" << r.churns << " leases=" << r.registry_leases
            << " bytes=" << r.guarded_total << "/" << r.oracle_total
            << " divergent=" << r.divergent_cells << " deterministic="
            << (r.deterministic ? "yes" : "NO") << " "
            << (r.passed ? "PASS" : "FAIL") << "\n";
        ok = ok && r.passed;
      }
    }
  } else {
    throw std::invalid_argument("--mode: expected lockstep, free or both");
  }
  // The verdict is essential output; a divergence must be loud even under
  // --quiet (the exit code alone is easy to lose in a pipeline).
  (ok ? log : static_cast<std::ostream&>(std::cerr))
      << (ok ? "stress: all scenarios passed" : "stress: DIVERGENCE detected")
      << "\n";
  const int rc = write_observability_outputs(args, log);
  return ok ? rc : 1;
}

// Read one or more --metrics-out snapshots, merge them (counters and
// histograms sum with saturation, gauges keep the max) and print the
// aggregate — the cross-run view of the profiler's self-accounting.
int cmd_metrics(const cs::ArgParser& args) {
  if (args.positional().size() < 2) {
    std::cerr << "metrics: expected one or more snapshot files "
                 "(write them with --metrics-out)\n";
    return usage();
  }
  std::vector<ctl::MetricSnapshot> merged;
  for (std::size_t i = 1; i < args.positional().size(); ++i) {
    const std::string& file = args.positional()[i];
    std::ifstream in(file);
    if (!in) {
      std::cerr << "cannot read " << file << "\n";
      return 1;
    }
    std::vector<ctl::MetricSnapshot> ms;
    try {
      ms = ctl::read_metrics(in);
    } catch (const std::exception& e) {
      // A corrupt snapshot is a runtime failure (exit 1), not a usage error:
      // the command line was fine, the file was not.
      std::cerr << "commscope: " << file << ": " << e.what() << "\n";
      return 1;
    }
    ctl::merge_metrics(merged, ms);
  }
  if (args.has("metrics-out")) {
    std::ofstream out(args.get("metrics-out"));
    if (!out) {
      std::cerr << "cannot write " << args.get("metrics-out") << "\n";
      return 1;
    }
    if (args.has("prometheus")) {
      ctl::write_prometheus(out, merged);
    } else {
      ctl::write_metrics(out, merged);
    }
  }
  if (args.has("prometheus")) {
    // Pure exposition output — no banner, so stdout pipes straight into a
    // Prometheus textfile collector.
    ctl::write_prometheus(std::cout, merged);
    return 0;
  }
  std::cout << "aggregated " << (args.positional().size() - 1)
            << " snapshot(s), " << merged.size() << " metrics\n";
  ctl::print_metrics(std::cout, merged);
  return 0;
}

// Live view: run the workload through the guarded pipeline on a background
// thread and refresh a small status block (events/s, memory, drops) from
// this one. Every figure shown is read from an atomic (the sink's precise
// event counter — forced on via count_events — the memory tracker, and the
// telemetry registry), so the reader never races the worker threads'
// unsynchronized per-thread counters.
/// `top --connect=SOCKET`: the same live status block, but painted from a
/// serve daemon's scrape endpoint instead of an in-process workload — the
/// daemon is the workload. Exits 0 once a previously-answering daemon goes
/// away (it drained), 1 when no daemon ever answered.
int top_connect(const cs::ArgParser& args) {
  const std::string socket = args.get("connect");
  const auto interval = std::chrono::milliseconds(
      std::max<std::int64_t>(20, args.get_int_strict("interval", 500)));
  const auto find = [](const std::vector<ctl::MetricSnapshot>& ms,
                       const char* name) -> std::uint64_t {
    for (const ctl::MetricSnapshot& m : ms) {
      if (m.name == name) return m.value;
    }
    return 0;
  };
#if defined(__unix__) || defined(__APPLE__)
  const bool ansi = isatty(1) != 0;
#else
  const bool ansi = false;
#endif
  const auto t0 = std::chrono::steady_clock::now();
  auto prev_time = t0;
  std::uint64_t prev_merged = 0;
  int painted_lines = 0;
  bool answered = false;
  for (;;) {
    std::ostringstream text;
    if (!csv::scrape_metrics(socket, text)) {
      if (answered) {
        std::cout << "top: daemon at " << socket << " exited\n";
        return 0;
      }
      std::cerr << "top: cannot scrape " << socket
                << " (is a daemon listening?)\n";
      return 1;
    }
    std::vector<ctl::MetricSnapshot> ms;
    try {
      std::istringstream in(text.str());
      ms = ctl::read_metrics(in);
    } catch (const std::exception& e) {
      std::cerr << "top: " << socket << ": " << e.what() << "\n";
      return 1;
    }
    // Recompute histogram quantiles from the buckets on EVERY scrape —
    // including the very first. The carried p50/p95/p99 fields are optional
    // in the text format (older daemons omit them), so trusting them until a
    // second scrape arrived painted stale or zero stage latencies.
    for (ctl::MetricSnapshot& m : ms) ctl::refresh_quantiles(m);
    answered = true;
    const auto now = std::chrono::steady_clock::now();
    const double elapsed = std::chrono::duration<double>(now - t0).count();
    const double window =
        std::chrono::duration<double>(now - prev_time).count();
    const std::uint64_t merged = find(ms, "serve.epochs.merged");
    const double rate =
        window > 0.0 ? static_cast<double>(merged - prev_merged) / window
                     : 0.0;
    prev_merged = merged;
    prev_time = now;
    if (ansi && painted_lines > 0) {
      std::cout << "\x1b[" << painted_lines << "A";
    }
    const char* clear = ansi ? "\x1b[K" : "";
    std::cout << clear << "commscope top — serve @ " << socket
              << "  t=" << cs::Table::num(elapsed, 1) << "s\n"
              << clear << "  sessions live " << find(ms, "serve.sessions.live")
              << "  (accepted " << find(ms, "serve.sessions.accepted")
              << ", sealed " << find(ms, "serve.sessions.sealed")
              << ", reaped " << find(ms, "serve.sessions.reaped")
              << ", dropped " << find(ms, "serve.sessions.dropped")
              << ", shed " << find(ms, "serve.sessions.shed") << ")\n"
              << clear << "  epochs merged " << merged << "  (+"
              << cs::Table::num(rate, 0) << "/s)  deduped "
              << find(ms, "serve.epochs.deduped") << "  frames "
              << find(ms, "serve.frames.ok") << "  rx "
              << cs::Table::bytes(find(ms, "serve.bytes.rx")) << "\n"
              << clear << "  degrade rung " << find(ms, "serve.degrade.rung")
              << "  mem " << cs::Table::bytes(find(ms, "serve.mem.bytes"))
              << "  (peak " << cs::Table::bytes(find(ms, "serve.mem.peak"))
              << ")  wal records " << find(ms, "serve.wal.records")
              << "  fsyncs " << find(ms, "serve.wal.fsyncs") << "\n";
    const auto hist = [&ms](const char* name) -> const ctl::MetricSnapshot* {
      for (const ctl::MetricSnapshot& m : ms) {
        if (m.kind == ctl::MetricKind::kHistogram && m.name == name) return &m;
      }
      return nullptr;
    };
    const auto stage = [&hist](const char* label, const char* name,
                               std::ostream& os) {
      os << "  " << label << " ";
      if (const ctl::MetricSnapshot* h = hist(name); h != nullptr &&
                                                     h->count > 0) {
        os << h->p50 << "/" << h->p95;
      } else {
        os << "-";
      }
    };
    std::cout << clear << "  stage us (p50/p95):";
    stage("decode", "serve.stage.decode_us", std::cout);
    stage("merge", "serve.stage.merge_us", std::cout);
    stage("journal", "serve.stage.journal_us", std::cout);
    stage("e2e", "serve.stage.e2e_us", std::cout);
    std::cout << "\n";
    std::cout.flush();
    painted_lines = 5;
    std::this_thread::sleep_for(interval);
  }
}

int cmd_top(const cs::ArgParser& args) {
  if (args.has("connect")) return top_connect(args);
  if (args.positional().size() < 2) return usage();
  const cw::Workload* w = cw::find(args.positional()[1]);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << args.positional()[1]
              << "' (try: commscope list)\n";
    return 1;
  }
  const int threads = args.get_int_as<int>("threads", 8);
  const cs::Scale scale = parse_scale(args.get("scale", "dev"));
  const auto interval = std::chrono::milliseconds(
      std::max<std::int64_t>(20, args.get_int_strict("interval", 500)));
  maybe_enable_trace(args);

  auto profiler =
      std::make_unique<cc::Profiler>(profiler_options(args, threads));
  cr::GuardedSink::Options sopts;
  sopts.count_events = true;  // a live-readable event counter is the point
  cr::GuardedSink sink(*profiler, nullptr, sopts);
  ct::ThreadTeam team(threads);

  std::atomic<bool> done{false};
  cw::Result result;
  std::thread runner([&] {
    ctl::ScopedSpan span(w->name.c_str(), ctl::SpanCat::kRun);
    result = w->run(scale, team, &sink);
    done.store(true, std::memory_order_release);
  });

#if defined(__unix__) || defined(__APPLE__)
  const bool ansi = isatty(1) != 0;
#else
  const bool ansi = false;
#endif
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t prev_events = 0;
  auto prev_time = t0;
  int painted_lines = 0;

  const auto paint = [&] {
    const auto now = std::chrono::steady_clock::now();
    const double elapsed = std::chrono::duration<double>(now - t0).count();
    const double window =
        std::chrono::duration<double>(now - prev_time).count();
    const std::uint64_t events = sink.events();
    const double rate =
        window > 0.0
            ? static_cast<double>(events - prev_events) / window
            : 0.0;
    prev_events = events;
    prev_time = now;
    if (ansi && painted_lines > 0) {
      std::cout << "\x1b[" << painted_lines << "A";
    }
    const char* clear = ansi ? "\x1b[K" : "";
    std::cout << clear << "commscope top — " << w->name << " ("
              << args.get("scale", "dev") << ", " << threads << " threads)  t="
              << cs::Table::num(elapsed, 1) << "s\n"
              << clear << "  events " << events << "  (+"
              << cs::Table::num(rate, 0) << "/s)  suppressed "
              << sink.suppressed() << "  reentrant drops "
              << sink.reentrant_drops() << "\n"
              << clear << "  profiler memory "
              << cs::Table::bytes(profiler->memory_bytes()) << "  (peak "
              << cs::Table::bytes(profiler->memory().peak()) << ")  RSS "
              << cs::Table::bytes(ctl::current_rss_bytes()) << "\n"
              << clear << "  live threads "
              << ct::ThreadRegistry::live_count() << "  dropped events "
              << profiler->dropped_events() << "  degradations "
              << ctl::counter("profiler.degradations").value() << "\n";
    std::cout.flush();
    painted_lines = 4;
  };

  while (!done.load(std::memory_order_acquire)) {
    paint();
    std::this_thread::sleep_for(interval);
  }
  runner.join();
  sink.finalize();
  paint();  // final state, post-finalize

  if (!result.ok) {
    std::cerr << w->name << ": verification FAILED\n";
    return 1;
  }
  const cc::ProfileStats stats = profiler->stats();
  std::cout << "run complete: " << stats.accesses << " accesses, "
            << stats.dependencies << " inter-thread RAW dependencies, "
            << cs::Table::bytes(profiler->communication_matrix().total())
            << " communicated\n";
  const int rc = write_epochs_output(args, *profiler, std::cout);
  if (rc != 0) return rc;
  return write_observability_outputs(args, std::cout);
}

// --- report / diff ----------------------------------------------------------

/// Reads a whole file or fails with the standard one-line diagnostic.
bool slurp_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return false;
  }
  std::ostringstream os;
  os << in.rdbuf();
  out = os.str();
  return true;
}

/// First whitespace-delimited token of a file — the format magic that picks
/// the diff mode (commscope-epochs vs commscope-matrix).
std::string sniff_magic(const std::string& text) {
  std::istringstream is(text);
  std::string magic;
  is >> magic;
  return magic;
}

int cmd_report(const cs::ArgParser& args) {
  if (args.positional().size() < 2) {
    std::cerr << "report: expected an epochs file "
                 "(write one with --epochs-out or a checkpoint sidecar)\n";
    return usage();
  }
  const std::string fmt = args.get("format", "text");
  if (fmt != "text" && fmt != "json" && fmt != "html") {
    throw std::invalid_argument("--format: expected text, json or html");
  }
  std::ifstream in(args.positional()[1]);
  if (!in) {
    std::cerr << "cannot read " << args.positional()[1] << "\n";
    return 1;
  }
  cc::ReportModel model;
  model.timeline = cc::read_epochs(in);
  model.title = args.get("title", args.positional()[1]);
  if (args.has("matrix")) {
    std::ifstream min(args.get("matrix"));
    if (!min) {
      std::cerr << "cannot read " << args.get("matrix") << "\n";
      return 1;
    }
    model.program = cc::read_matrix(min);
    model.has_program = true;
  }
  if (args.has("metrics")) {
    std::ifstream sin(args.get("metrics"));
    if (!sin) {
      std::cerr << "cannot read " << args.get("metrics") << "\n";
      return 1;
    }
    model.metrics = ctl::read_metrics(sin);
  }

  const auto render = [&](std::ostream& out) {
    if (fmt == "json") {
      cc::render_json(out, model);
    } else if (fmt == "html") {
      cc::render_html(out, model);
    } else {
      cc::render_text(out, model);
    }
  };
  if (args.has("out")) {
    std::ofstream out(args.get("out"));
    if (!out) {
      std::cerr << "cannot write " << args.get("out") << "\n";
      return 1;
    }
    render(out);
    std::cout << fmt << " report written to " << args.get("out") << "\n";
  } else {
    render(std::cout);
  }
  return 0;
}

int cmd_diff(const cs::ArgParser& args) {
  if (args.positional().size() < 3) {
    std::cerr << "diff: expected two files to compare "
                 "(epochs, matrices, or --bench ingest JSON)\n";
    return usage();
  }
  const std::string& path_a = args.positional()[1];
  const std::string& path_b = args.positional()[2];
  std::string text_a, text_b;
  if (!slurp_file(path_a, text_a) || !slurp_file(path_b, text_b)) return 1;
  const bool quiet = args.has("quiet");
  std::ostream& log = out_stream(quiet);

  if (args.has("bench")) {
    const double threshold = args.get_double_strict("threshold", 0.25);
    // Absolute floor on the fresh sweep's batched speedup (0 = off): the
    // relative gate tolerates a slow fresh run as long as the baseline was
    // equally slow, but "batching still beats inline ingest" is an absolute
    // claim — CI pins it with --floor-speedup=1.0 at the default batch 64.
    cc::BenchFloor floor;
    floor.min_speedup = args.get_double_strict("floor-speedup", 0.0);
    floor.batch = args.get_int_as<std::uint32_t>("floor-batch", floor.batch);
    const cc::BenchDiff d = cc::diff_bench(text_a, text_b, threshold, floor);
    log << "bench diff: " << path_a << " (baseline) vs " << path_b << "\n";
    for (const cc::BenchDelta& p : d.points) {
      log << "  batch=" << p.batch << "  " << cs::Table::num(p.base_rate, 0)
          << " -> " << cs::Table::num(p.fresh_rate, 0) << " events/s  ("
          << (p.change >= 0 ? "+" : "")
          << cs::Table::num(p.change * 100.0, 1) << "%)"
          << (p.regressed ? "  REGRESSED" : "") << "\n";
    }
    // The verdict is essential output, loud even under --quiet.
    (d.regressed ? std::cerr : static_cast<std::ostream&>(std::cout))
        << d.verdict << "\n";
    return d.regressed ? 3 : 0;
  }

  cc::DiffThresholds th;
  th.norm_l1 = args.get_double_strict("threshold-l1", th.norm_l1);
  th.norm_max_cell = args.get_double_strict("threshold-cell", th.norm_max_cell);

  const std::string magic_a = sniff_magic(text_a);
  const std::string magic_b = sniff_magic(text_b);
  if (magic_a != magic_b) {
    std::cerr << "diff: cannot compare a '" << magic_a << "' file with a '"
              << magic_b << "' file\n";
    return 1;
  }

  if (magic_a == "commscope-epochs") {
    std::istringstream ia(text_a), ib(text_b);
    const cc::EpochTimeline a = cc::read_epochs(ia);
    const cc::EpochTimeline b = cc::read_epochs(ib);
    const cc::TimelineDiff d = cc::diff_timelines(a, b, th);
    log << "epoch diff: " << path_a << " (" << d.epochs_a << " epochs) vs "
        << path_b << " (" << d.epochs_b << " epochs)\n";
    log << "  total volume: normalized L1 "
        << cs::Table::num(d.total.norm_l1 * 100.0, 2) << "%  max cell "
        << cs::Table::num(d.total.norm_max_cell * 100.0, 2) << "%\n";
    if (!d.epochs.empty()) {
      log << "  worst epoch: normalized L1 "
          << cs::Table::num(d.worst_epoch_l1 * 100.0, 2) << "%\n";
    }
    for (const cc::LoopDrift& l : d.loops) {
      if (l.drift <= th.loop_drift) continue;
      log << "  loop drift: " << l.label << "  "
          << cs::Table::bytes(l.bytes_a) << " -> " << cs::Table::bytes(l.bytes_b)
          << "  (" << cs::Table::num(l.drift * 100.0, 1) << "%)\n";
    }
    (d.regressed ? std::cerr : static_cast<std::ostream&>(std::cout))
        << d.verdict << "\n";
    return d.regressed ? 3 : 0;
  }
  if (magic_a == "commscope-matrix") {
    std::istringstream ia(text_a), ib(text_b);
    const cc::Matrix a = cc::read_matrix(ia);
    const cc::Matrix b = cc::read_matrix(ib);
    const cc::TimelineDiff d = cc::diff_matrices(a, b, th);
    log << "matrix diff: " << path_a << " vs " << path_b << "\n";
    log << "  normalized L1 " << cs::Table::num(d.total.norm_l1 * 100.0, 2)
        << "%  max cell " << cs::Table::num(d.total.norm_max_cell * 100.0, 2)
        << "%\n";
    (d.regressed ? std::cerr : static_cast<std::ostream&>(std::cout))
        << d.verdict << "\n";
    return d.regressed ? 3 : 0;
  }
  std::cerr << "diff: unrecognized file format '" << magic_a
            << "' (expected commscope-epochs or commscope-matrix; "
               "use --bench for ingest bench JSON)\n";
  return 1;
}

/// Set (and only set) by the SIGTERM/SIGINT handlers below; the serve poll
/// loop polls it and runs the graceful drain — seal every active session,
/// take a final snapshot, return — so a signalled daemon exits 0 with
/// nothing acknowledged left undurable.
volatile std::sig_atomic_t g_drain_requested = 0;

extern "C" void serve_drain_handler(int /*signo*/) { g_drain_requested = 1; }

/// Installs SIGTERM/SIGINT drain handlers without SA_RESTART, so a pending
/// poll() wakes with EINTR and the loop notices the flag immediately.
void install_drain_handlers() {
  struct sigaction sa{};
  sa.sa_handler = serve_drain_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

int cmd_serve(const cs::ArgParser& args) {
  const bool quiet = args.has("quiet");
  std::ostream& log = out_stream(quiet);
  const std::string socket = args.get("socket", "");
  if (socket.empty()) {
    throw std::invalid_argument("serve: --socket=PATH is required");
  }

  if (args.has("scrape")) {
    // Client mode: pull a metrics snapshot from a live daemon
    // (--prometheus asks it for text exposition format instead of v1).
    std::ostringstream text;
    if (!csv::scrape_metrics(socket, text, 2000, args.has("prometheus"))) {
      std::cerr << "serve: cannot scrape " << socket
                << " (is a daemon listening?)\n";
      return 1;
    }
    if (args.has("metrics-out")) {
      std::ofstream out(args.get("metrics-out"));
      if (!out) {
        std::cerr << "cannot write " << args.get("metrics-out") << "\n";
        return 1;
      }
      out << text.str();
      log << "metrics written to " << args.get("metrics-out") << "\n";
    } else {
      std::cout << text.str();
    }
    return 0;
  }

  maybe_enable_trace(args);
  csv::ServeOptions opts;
  opts.socket_path = socket;
  opts.mem_budget_bytes = args.get_bytes_strict("mem-budget", 0);
  opts.reap_ms = args.get_int_as<std::uint32_t>("reap-ms", 5000);
  opts.max_sessions = args.get_int_as<std::uint32_t>("max-sessions", 64);
  opts.exit_after_connections = args.get_int_as<std::uint64_t>("sessions", 0);
  opts.idle_exit_ms = args.get_int_as<std::uint32_t>("idle-exit-ms", 0);
  opts.state_dir = args.get("state-dir", "");
  if (args.has("fsync")) {
    const std::string policy = args.get("fsync");
    const auto parsed = csv::parse_fsync_policy(policy);
    if (!parsed) {
      throw std::invalid_argument(
          "serve: --fsync: expected per-ack, per-n or on-compaction, got '" +
          policy + "'");
    }
    opts.fsync_policy = *parsed;
  }
  opts.fsync_every = args.get_int_as<std::uint32_t>("fsync-n", 256);
  opts.compact_every = args.get_int_as<std::uint64_t>("compact-every", 4096);
  opts.no_recover = args.has("no-recover");
  opts.drain_flag = &g_drain_requested;
  opts.log = quiet ? nullptr : &std::cout;
  std::unique_ptr<cr::FaultInjector> injector;
  if (const auto plan = cr::FaultInjector::plan_from_env()) {
    injector = std::make_unique<cr::FaultInjector>(*plan);
    opts.injector = injector.get();
  }

  // Handlers go in before open(): recovery replay + the startup compaction
  // can take a while on a big WAL tail, and a SIGTERM landing in that
  // window must still reach the drain path (the flag is simply observed on
  // the first run() iteration) instead of killing the process mid-write.
  install_drain_handlers();
  csv::ServeServer server(std::move(opts));
  if (!server.open()) {
    std::cerr << "commscope: " << server.last_error() << "\n";
    return 1;
  }

  // Watchdog: a daemon asked to exit on its own terms (--sessions /
  // --idle-exit-ms) that outlives --timeout is stuck; honor the CLI-wide
  // 124 contract.
  const double timeout = args.get_double_strict("timeout", 0.0);
  std::atomic<bool> done{false};
  std::atomic<bool> timed_out{false};
  std::thread watchdog;
  if (timeout > 0.0) {
    watchdog = std::thread([&] {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::duration<double>(timeout);
      while (!done.load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() >= deadline) {
          timed_out.store(true, std::memory_order_release);
          server.stop();
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  server.run();
  done.store(true, std::memory_order_release);
  if (watchdog.joinable()) watchdog.join();

  const csv::ServeStats stats = server.snapshot();
  if (stats.drained) log << "serve: drained on signal\n";
  if (stats.recovered) {
    log << "serve: recovered " << stats.recovered_sessions << " session(s), "
        << stats.recovery_records << " WAL record(s) replayed ("
        << stats.recovered_epochs << " epoch(s))"
        << (stats.recovered_torn_tail ? ", torn tail tolerated" : "") << "\n";
  }
  log << "serve: " << stats.sessions_accepted << " session(s) ("
      << stats.sessions_sealed << " sealed, " << stats.sessions_reaped
      << " reaped, " << stats.sessions_dropped << " dropped, "
      << stats.sessions_shed << " shed), " << stats.epochs_merged
      << " epoch(s) merged, " << stats.epochs_deduped << " deduped\n";

  if (args.has("epochs-out")) {
    const cc::EpochTimeline merged = server.merged_timeline();
    std::ofstream out(args.get("epochs-out"));
    if (!out) {
      std::cerr << "cannot write " << args.get("epochs-out") << "\n";
      return 1;
    }
    cc::write_epochs(out, merged);
    log << merged.epochs.size() << " merged epoch(s) written to "
        << args.get("epochs-out") << "\n";
  }
  const int orc = write_observability_outputs(args, log);
  if (orc != 0) return orc;
  return timed_out.load(std::memory_order_acquire) ? 124 : 0;
}

// Stitch per-process --trace-out files (client runs + the serve daemon)
// into one Chrome trace, shifting each client onto the daemon's timeline
// via the handshake clock-offset estimate (see telemetry/trace_merge.hpp).
int cmd_trace(const cs::ArgParser& args) {
  if (!args.has("merge") || args.positional().size() < 2) {
    std::cerr << "trace: expected --merge <trace.json...> "
                 "(Chrome traces written by --trace-out)\n";
    return usage();
  }
  const std::vector<std::string> paths(args.positional().begin() + 1,
                                       args.positional().end());
  std::ostringstream merged;
  const ctl::TraceMergeResult r = ctl::merge_traces(paths, merged);
  if (!r.ok()) {
    std::cerr << "commscope: trace: " << r.error << "\n";
    return 1;
  }
  if (args.has("out")) {
    std::ofstream out(args.get("out"));
    if (!out) {
      std::cerr << "cannot write " << args.get("out") << "\n";
      return 1;
    }
    out << merged.str();
  } else {
    std::cout << merged.str();
  }
  // Summary on stderr so stdout stays a loadable trace when --out is absent.
  std::cerr << "merged " << r.files << " trace(s): " << r.events
            << " event(s), " << r.contexts_paired
            << " context(s) paired, " << r.files_shifted
            << " file(s) clock-shifted\n";
  return 0;
}

/// The health SLO: every rule names a counter whose nonzero value means the
/// deployment degraded service somewhere — data was dropped, accuracy was
/// traded, or durability fell back. The daemon surviving those events is
/// the design working; the breach report is what tells an operator the
/// capacity or client behaviour still needs attention.
struct SloRule {
  const char* metric;
  const char* what;
};

constexpr SloRule kSloRules[] = {
    {"serve.sessions.dropped", "sessions dropped (protocol violations)"},
    {"serve.sessions.reaped", "sessions reaped (heartbeat timeouts)"},
    {"serve.degrade.transitions", "overload-ladder transitions"},
    {"serve.epochs.shed", "epochs shed under overload"},
    {"serve.epochs.sampled_out", "epochs sampled out under overload"},
    {"serve.wal.fsync_failures", "WAL fsync failures"},
    {"serve.wal.write_errors", "WAL write errors"},
    {"serve.wal.failed", "WAL in failed state (durability suspended)"},
    {"ship.spills", "client flushes spilled to the sidecar"},
    {"profiler.degradations", "profiler degradation-ladder firings"},
    {"perf.unavailable",
     "perf counter engine degraded (hardware events unavailable)"},
};

// SLO summary over metric snapshots (files, or a live daemon's scrape
// endpoint via --connect). Exit contract: 0 = healthy, 3 = SLO breach
// (inputs were fine; the deployment degraded), 1 = unreadable input or no
// daemon answering, 2 = usage.
int cmd_health(const cs::ArgParser& args) {
  const bool quiet = args.has("quiet");
  std::ostream& log = out_stream(quiet);
  std::vector<ctl::MetricSnapshot> merged;
  if (args.has("connect")) {
    std::ostringstream text;
    if (!csv::scrape_metrics(args.get("connect"), text)) {
      std::cerr << "health: cannot scrape " << args.get("connect")
                << " (is a daemon listening?)\n";
      return 1;
    }
    try {
      std::istringstream in(text.str());
      merged = ctl::read_metrics(in);
    } catch (const std::exception& e) {
      std::cerr << "commscope: " << args.get("connect") << ": " << e.what()
                << "\n";
      return 1;
    }
  } else if (args.positional().size() >= 2) {
    for (std::size_t i = 1; i < args.positional().size(); ++i) {
      const std::string& file = args.positional()[i];
      std::ifstream in(file);
      if (!in) {
        std::cerr << "cannot read " << file << "\n";
        return 1;
      }
      std::vector<ctl::MetricSnapshot> ms;
      try {
        ms = ctl::read_metrics(in);
      } catch (const std::exception& e) {
        std::cerr << "commscope: " << file << ": " << e.what() << "\n";
        return 1;
      }
      ctl::merge_metrics(merged, ms);
    }
  } else {
    std::cerr << "health: expected snapshot files or --connect=SOCKET\n";
    return usage();
  }

  const auto value_of = [&merged](const char* name) -> std::uint64_t {
    for (const ctl::MetricSnapshot& m : merged) {
      if (m.name == name) return m.value;
    }
    return 0;
  };
  int breaches = 0;
  for (const SloRule& rule : kSloRules) {
    const std::uint64_t v = value_of(rule.metric);
    if (v > 0) {
      ++breaches;
      std::cout << "BREACH  " << rule.metric << " = " << v << "  ("
                << rule.what << ")\n";
    } else {
      log << "ok      " << rule.metric << "\n";
    }
  }
  if (breaches > 0) {
    std::cout << "health: " << breaches << " SLO breach(es)\n";
    return 3;
  }
  log << "health: ok\n";
  return 0;
}

int dispatch(const cs::ArgParser& args) {
  if (args.positional().empty()) return usage();
  const std::string& cmd = args.positional()[0];
  static const std::map<std::string, int (*)(const cs::ArgParser&)> commands = {
      {"list", [](const cs::ArgParser&) { return cmd_list(); }},
      {"run", cmd_run},
      {"replay", cmd_replay},
      {"resume", cmd_resume},
      {"classify", cmd_classify},
      {"map", cmd_map},
      {"stress", cmd_stress},
      {"metrics", cmd_metrics},
      {"top", cmd_top},
      {"report", cmd_report},
      {"diff", cmd_diff},
      {"serve", cmd_serve},
      {"trace", cmd_trace},
      {"health", cmd_health},
  };
  const auto it = commands.find(cmd);
  if (it == commands.end()) {
    std::cerr << "unknown command '" << cmd << "' (commands: " << kCommandList
              << ")\n";
    return usage();
  }
  // Each subcommand accepts exactly its declared vocabulary; a typo'd flag
  // is a usage error everywhere, never a silently ignored default.
  for (const std::string& f : args.unknown_flags(known_flags_for(cmd))) {
    std::cerr << "unknown flag --" << f << " for '" << cmd << "'\n";
    return usage();
  }
  return it->second(args);
}

}  // namespace

int main(int argc, char** argv) {
  // The parser only understands --long flags; -q is the one short alias the
  // contract names, so expand it before parsing.
  std::vector<std::string> raw;
  for (int i = 1; i < argc; ++i) {
    raw.emplace_back(std::string(argv[i]) == "-q" ? "--quiet" : argv[i]);
  }
  const cs::ArgParser args(raw,
                           {"classify", "sparse", "pattern", "dvfs",
                            "no-churn", "quiet", "bench", "scrape",
                            "prometheus", "merge"});
  // One-line diagnostics, contractual exit codes: malformed usage is 2,
  // runtime failure (unreadable/corrupt file, failed run) is 1. No raw
  // exception ever escapes to std::terminate.
  try {
    return dispatch(args);
  } catch (const std::invalid_argument& e) {
    std::cerr << "commscope: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "commscope: " << e.what() << "\n";
    return 1;
  }
}
