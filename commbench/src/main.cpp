// commbench — the CommScope end-to-end benchmark binary.
//
//   commbench --workload <live-plain|live-features|live-checkpoint|serve-ship>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke] [--inject <k>]
//
// Untraced runs (--trace 0) print the gated end-to-end metrics; traced runs
// (--trace 1) wrap the outermost sink in a timing decorator, record spans
// around every coarse library call and print the per-layer metrics, writing
// the per-layer JSON and a Chrome-trace span file under .bench_out/. The
// last line of standard output is always one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Exit codes: 0 all checks held; 1 a correctness check failed (the result
// still prints, with "correct": false); 2 usage error or an untimeable build
// (no result line).
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace fs = std::filesystem;

namespace {

int usage(const char* why) {
  std::cerr << "commbench: " << why
            << "\nusage: commbench --workload <live-plain|live-features|"
               "live-checkpoint|serve-ship> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--inject <cell|truncate|lost-ack>]\n";
  return 2;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(const commbench::Outcome& out,
                        const std::vector<commbench::Metric>& metrics,
                        bool correct) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const commbench::Metric& m = metrics[i];
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace

namespace commbench {

const std::vector<std::pair<const char*, const char*>>& end_to_end_catalog() {
  static const std::vector<std::pair<const char*, const char*>> kAll = {
      {"setup_s", "s"},          {"events_per_s", "events/s"},
      {"slowdown_x", "x"},       {"profiler_peak_mb", "MB"},
      {"rss_peak_mb", "MB"},     {"ok_frac", "ratio"},
  };
  return kAll;
}

const std::vector<std::pair<const char*, const char*>>& per_layer_catalog() {
  static const std::vector<std::pair<const char*, const char*>> kAll = {
      {"workloads.native_ms", "ms"},
      {"threading.team_start_ms", "ms"},
      {"core.profiler_new_ms", "ms"},
      {"core.on_access_ns.p50", "ns"},
      {"core.on_access_ns.p99", "ns"},
      {"core.on_loop_ns.p50", "ns"},
      {"core.on_loop_ns.p99", "ns"},
      {"core.on_drain_ns.p50", "ns"},
      {"core.on_drain_ns.p99", "ns"},
      {"core.batch_fill", "ratio"},
      {"core.batch_partial_frac", "ratio"},
      {"core.finalize_ms", "ms"},
      {"core.accesses", "count"},
      {"core.dependencies", "count"},
      {"core.mem_peak_mb", "MB"},
      {"core.dropped_events", "count"},
      {"core.recorder.epochs_sealed", "count"},
      {"core.recorder.epochs_dropped", "count"},
      {"core.phase.windows", "count"},
      {"core.report_ms", "ms"},
      {"sigmem.matrix_l1_err", "ratio"},
      {"sigmem.accuracy_apps", "count"},
      {"resilience.sink_new_ms", "ms"},
      {"resilience.guard.checks", "count"},
      {"resilience.sink.reentrant_drops", "count"},
      {"resilience.sink.suppressed", "count"},
      {"resilience.checkpoint.written", "count"},
      {"resilience.checkpoint.write_us.p50", "us"},
      {"resilience.checkpoint.write_us.p99", "us"},
      {"resilience.checkpoint.bytes", "bytes"},
      {"resilience.sidecar.written", "count"},
      {"resilience.load_checkpoint_ms", "ms"},
      {"telemetry.perf.reads", "count"},
      {"telemetry.perf.cycles_per_event", "cycles/event"},
      {"telemetry.perf.ipc", "ratio"},
      {"telemetry.perf.unavailable", "count"},
      {"serve.open_ms", "ms"},
      {"serve.ship.send_us.p50", "us"},
      {"serve.ship.send_us.p99", "us"},
      {"serve.ship.ack_us.p50", "us"},
      {"serve.ship.ack_us.p99", "us"},
      {"serve.stage.decode_us.p50", "us"},
      {"serve.stage.decode_us.p99", "us"},
      {"serve.stage.dedupe_us.p50", "us"},
      {"serve.stage.dedupe_us.p99", "us"},
      {"serve.stage.merge_us.p50", "us"},
      {"serve.stage.merge_us.p99", "us"},
      {"serve.stage.journal_us.p50", "us"},
      {"serve.stage.journal_us.p99", "us"},
      {"serve.stage.ack_us.p50", "us"},
      {"serve.stage.ack_us.p99", "us"},
      {"serve.wal.fsync_us.p50", "us"},
      {"serve.wal.fsync_us.p99", "us"},
      {"serve.wal.fsyncs", "count"},
      {"serve.wal.records", "count"},
      {"serve.wal.compactions", "count"},
      {"serve.ship.retries", "count"},
      {"serve.epochs_deduped", "count"},
      {"serve.sessions_dropped", "count"},
      {"serve.recovery_records", "count"},
      {"serve.wal_bytes", "bytes"},
      {"serve.ack_p50_ms", "ms"},
      {"serve.ack_p99_ms", "ms"},
      {"serve.recovery_ms", "ms"},
      {"trace_overhead_frac", "ratio"},
  };
  return kAll;
}

}  // namespace commbench

int main(int argc, char** argv) {
  commbench::Config cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        cfg.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (a == "--trace") {
        cfg.trace = value() == "1";
      } else if (a == "--smoke") {
        cfg.smoke = true;
      } else if (a == "--inject") {
        cfg.inject = value();
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (!have_workload) return usage("--workload is required");
  const bool live = cfg.workload == "live-plain" ||
                    cfg.workload == "live-features" ||
                    cfg.workload == "live-checkpoint";
  if (!live && cfg.workload != "serve-ship") {
    return usage(("unknown workload " + cfg.workload).c_str());
  }
  if (!cfg.inject.empty() && cfg.inject != "cell" &&
      cfg.inject != "truncate" && cfg.inject != "lost-ack") {
    return usage(("unknown --inject " + cfg.inject).c_str());
  }
  if (const std::string why = commbench::untimeable_build_reason();
      !why.empty()) {
    std::cerr << "commbench: refusing to report timings: " << why << "\n";
    return 2;
  }
  // The benchmark owns its inputs: no injected faults from the environment.
  ::unsetenv("COMMSCOPE_FAULT");
  // Pin glibc's mmap threshold at its 128 KiB default. Left dynamic, it
  // rises after the first large free, so whether a fresh profiler's
  // signature stripes come from fresh zero pages (as in a one-app
  // `commscope run`) or from recycled heap depends on the order of earlier
  // runs in this process, and set-up and ingest times swing by 2x with the
  // seed's app order.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  cfg.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  cfg.work_dir = ".bench_build/w" + std::to_string(::getpid());
  cfg.out_dir = ".bench_out";
  std::error_code ec;
  fs::remove_all(cfg.work_dir, ec);
  fs::create_directories(cfg.work_dir);
  if (cfg.trace) fs::create_directories(cfg.out_dir);

  const std::string host = commbench::fingerprint_json(cfg);
  std::cout << "fingerprint: " << host << "\n";

  std::unique_ptr<commbench::SpanLog> spans;
  if (cfg.trace) spans = std::make_unique<commbench::SpanLog>();

  commbench::Outcome out;
  try {
    out = live ? commbench::run_live(cfg, spans.get())
               : commbench::run_serve(cfg, spans.get());
  } catch (const std::exception& e) {
    out.attempt(false, std::string("exception: ") + e.what());
  }
  fs::remove_all(cfg.work_dir, ec);

  // Untraced runs print every end-to-end metric, traced runs every per-layer
  // metric (0 for a layer the workload does not reach).
  std::vector<commbench::Metric> metrics;
  for (const auto& [name, unit] : cfg.trace ? commbench::per_layer_catalog()
                                            : commbench::end_to_end_catalog()) {
    const auto it = out.values.find(name);
    if (!cfg.trace && it == out.values.end()) {
      out.attempt(false, std::string(name) + " was not measured");
    }
    const double v = it == out.values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) out.attempt(false, std::string(name) + " is not finite");
    metrics.push_back({name, std::isfinite(v) ? v : 0.0, unit});
  }
  const bool correct = out.failed == 0 && out.attempted > 0;

  for (const std::string& line : out.report) std::cout << line << "\n";
  for (const std::string& f : out.failures) std::cout << "FAILED: " << f << "\n";

  const std::string json = result_json(out, metrics, correct);
  if (cfg.trace) {
    const std::string stem = cfg.out_dir + "/" + cfg.workload + "-seed" +
                             std::to_string(cfg.seed);
    std::ofstream layers(stem + ".layers.json");
    layers << "{\"workload\": \"" << cfg.workload << "\", \"seed\": "
           << cfg.seed << ", \"fingerprint\": " << host
           << ", \"result\": " << json << "}\n";
    spans->write_chrome(stem + ".trace.json");
    std::cout << "per-layer metrics written to " << stem
              << ".layers.json, spans to " << stem << ".trace.json\n";
  }
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
