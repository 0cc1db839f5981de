// Integration tests for the `commscope` CLI binary. The binary path arrives
// as the first non-gtest argument (wired in tests/CMakeLists.txt); each test
// shells out and checks exit codes and output files.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

std::string g_cli;  // set in main()

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_cli(const std::string& args, const std::string& env = "") {
  const std::string cmd =
      (env.empty() ? "" : env + " ") + g_cli + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  RunResult r;
  if (pipe == nullptr) return r;
  char buf[512];
  while (fgets(buf, sizeof buf, pipe) != nullptr) r.output += buf;
  const int status = pclose(pipe);
  r.exit_code = WEXITSTATUS(status);
  return r;
}

}  // namespace

TEST(Cli, NoArgsPrintsUsage) {
  const RunResult r = run_cli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Cli, ListShowsAllWorkloads) {
  const RunResult r = run_cli("list");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* name : {"barnes", "radix", "water_nsq", "lu_ncb"}) {
    EXPECT_NE(r.output.find(name), std::string::npos) << name;
  }
}

TEST(Cli, RunProducesReport) {
  const RunResult r = run_cli("run fft --threads=4");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("CommScope profile"), std::string::npos);
  EXPECT_NE(r.output.find("fft:stage"), std::string::npos);
}

TEST(Cli, UnknownWorkloadFails) {
  const RunResult r = run_cli("run nonesuch");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown workload"), std::string::npos);
}

TEST(Cli, UnknownFlagRejected) {
  const RunResult r = run_cli("run fft --bogus=1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown flag --bogus"), std::string::npos);
}

TEST(Cli, ClassifyRoundTripThroughSavedMatrix) {
  const std::string matrix = "/tmp/commscope_cli_test.matrix";
  const RunResult save =
      run_cli("run ocean_cp --threads=4 --save-matrix=" + matrix);
  ASSERT_EQ(save.exit_code, 0);
  const RunResult classify = run_cli("classify " + matrix);
  EXPECT_EQ(classify.exit_code, 0);
  EXPECT_NE(classify.output.find("kNN:"), std::string::npos);
  std::remove(matrix.c_str());
}

TEST(Cli, TraceRecordAndReplay) {
  const std::string trace = "/tmp/commscope_cli_test.trace";
  const RunResult save =
      run_cli("run radix --threads=4 --save-trace=" + trace);
  ASSERT_EQ(save.exit_code, 0);
  EXPECT_NE(save.output.find("events written"), std::string::npos);
  const RunResult replay = run_cli("replay " + trace + " --backend=exact");
  EXPECT_EQ(replay.exit_code, 0);
  EXPECT_NE(replay.output.find("replayed"), std::string::npos);
  EXPECT_NE(replay.output.find("radix:permute"), std::string::npos);
  std::remove(trace.c_str());
}

TEST(Cli, MapPlansPlacementFromMatrix) {
  const std::string matrix = "/tmp/commscope_cli_map.matrix";
  ASSERT_EQ(run_cli("run ocean_cp --threads=4 --save-matrix=" + matrix)
                .exit_code,
            0);
  const RunResult map = run_cli("map " + matrix + " --sockets=2 --cores=2");
  EXPECT_EQ(map.exit_code, 0);
  EXPECT_NE(map.output.find("best mapping cost"), std::string::npos);
  std::remove(matrix.c_str());
}

TEST(Cli, DvfsPlanFromPhases) {
  const RunResult r =
      run_cli("run ocean_ncp --threads=4 --phases=8192 --dvfs");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("phases detected:"), std::string::npos);
  EXPECT_NE(r.output.find("DVFS plan:"), std::string::npos);
  EXPECT_NE(r.output.find("GHz"), std::string::npos);
}

TEST(Cli, CsvExportHasSchema) {
  const std::string csv = "/tmp/commscope_cli_test.csv";
  ASSERT_EQ(run_cli("run lu_cb --threads=4 --csv=" + csv).exit_code, 0);
  std::ifstream in(csv);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.rfind("label,depth,entries", 0), 0u);
  std::remove(csv.c_str());
}

// --- error handling and exit-code contract ---------------------------------
//
// 0 success, 1 runtime failure, 2 usage error, 124 watchdog timeout,
// 128+sig signal death. Locked here so scripts can rely on it.

TEST(CliErrors, UnknownCommandIsUsageError) {
  const RunResult r = run_cli("frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown command 'frobnicate'"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
  // The diagnostic names every subcommand, including the observability ones.
  for (const char* cmd : {"list", "run", "replay", "resume", "classify",
                          "map", "stress", "metrics", "top"}) {
    EXPECT_NE(r.output.find(cmd), std::string::npos) << cmd;
  }
}

TEST(CliErrors, MalformedFlagValueIsUsageError) {
  const RunResult r = run_cli("run fft --threads=abc");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--threads"), std::string::npos);
  const RunResult b = run_cli("run fft --mem-budget=12Q");
  EXPECT_EQ(b.exit_code, 2);
  const RunResult scale = run_cli("run fft --scale=smal");
  EXPECT_EQ(scale.exit_code, 2);
  EXPECT_NE(scale.output.find("--scale"), std::string::npos);
  const RunResult backend = run_cli("run fft --backend=exakt");
  EXPECT_EQ(backend.exit_code, 2);
  EXPECT_NE(backend.output.find("--backend"), std::string::npos);
  // Out of the profiler's range: rejected before the signatures are built
  // for it, not a runtime allocation failure.
  const RunResult wide = run_cli("run fft --threads=1048576");
  EXPECT_EQ(wide.exit_code, 2);
  EXPECT_NE(wide.output.find("1..64 threads"), std::string::npos);
  // Past what the field holds: rejected, not wrapped into a valid setting
  // (2^32 + 4 threads would profile at 4, 2^32 + 64 would batch by 64, and
  // 2^32 + 1 would keep a 1-slot epoch ring).
  for (const char* flags :
       {"--threads=4294967300", "--batch=4294967360",
        "--epoch-every=1000 --epoch-ring=4294967297", "--batch=-1",
        "--slots=-1", "--phases=-65536", "--epoch-every=-1000",
        "--event-budget=-1", "--heatmaps=4294967297",
        // A usage error even inside best-effort shipping.
        "--ship-to=/tmp/commscope_cli_narrow.sock --ship-session=-1"}) {
    const RunResult narrow =
        run_cli(std::string("run fft --scale=dev --threads=4 ") + flags);
    EXPECT_EQ(narrow.exit_code, 2) << flags << "\n" << narrow.output;
    EXPECT_NE(narrow.output.find("expected an integer in ["),
              std::string::npos)
        << flags;
  }
  const RunResult seed = run_cli("stress --seed=-1 --steps=16");
  EXPECT_EQ(seed.exit_code, 2) << seed.output;
  const std::string matrix = "/tmp/commscope_cli_narrow.matrix";
  ASSERT_EQ(run_cli("run fft --threads=4 -q --save-matrix=" + matrix).exit_code,
            0);
  const RunResult topo = run_cli("map " + matrix + " --cores=4294967304");
  EXPECT_EQ(topo.exit_code, 2) << topo.output;
  EXPECT_NE(topo.output.find("--cores"), std::string::npos);
  std::remove(matrix.c_str());
}

TEST(CliErrors, CorruptMatrixFileFailsWithDiagnostic) {
  const std::string path = "/tmp/commscope_cli_corrupt.matrix";
  {
    std::ofstream out(path);
    out << "commscope-matrix 2\n2\n0 1\n2 3\ncrc32 deadbeef\n";
  }
  const RunResult r = run_cli("classify " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("commscope:"), std::string::npos);
  std::remove(path.c_str());
}

// --- resilience: budgets, crash-safety, resume -----------------------------

TEST(CliResilience, MemBudgetRunCompletesWithDegradationProvenance) {
  const RunResult r =
      run_cli("run fft --threads=4 --backend=exact --mem-budget=64K");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("degradations:"), std::string::npos);
  EXPECT_NE(r.output.find("memory budget exceeded"), std::string::npos);
}

TEST(CliResilience, EventBudgetRunCompletesAndLogsSuppression) {
  const RunResult r = run_cli("run fft --threads=4 --event-budget=1000");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("event budget exhausted"), std::string::npos);
}

TEST(CliResilience, InjectedCrashLeavesResumableCheckpoint) {
  const std::string trace = "/tmp/commscope_cli_kill.trace";
  const std::string ck = "/tmp/commscope_cli_kill.ck";
  ASSERT_EQ(run_cli("run radix --threads=4 --save-trace=" + trace).exit_code,
            0);
  const RunResult killed =
      run_cli("replay " + trace + " --checkpoint=" + ck +
                  " --checkpoint-every=10000",
              "COMMSCOPE_FAULT=kill-at-event:50000");
  EXPECT_EQ(killed.exit_code, 139) << killed.output;  // 128 + SIGSEGV
  EXPECT_NE(killed.output.find("emergency snapshot written"),
            std::string::npos);

  const RunResult resumed = run_cli("resume " + ck);
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("state: partial"), std::string::npos);
  EXPECT_NE(resumed.output.find("radix:"), std::string::npos);
  std::remove(trace.c_str());
  std::remove(ck.c_str());
}

TEST(CliResilience, WatchdogTimesOutWithResumableCheckpoint) {
  const std::string trace = "/tmp/commscope_cli_hang.trace";
  const std::string ck = "/tmp/commscope_cli_hang.ck";
  ASSERT_EQ(run_cli("run radix --threads=4 --save-trace=" + trace).exit_code,
            0);
  const RunResult hung =
      run_cli("replay " + trace + " --checkpoint=" + ck +
                  " --checkpoint-every=5000 --timeout=0.5",
              "COMMSCOPE_FAULT=\"sleep-at-event:20000;sleep-ms:5000\"");
  EXPECT_EQ(hung.exit_code, 124) << hung.output;
  EXPECT_NE(hung.output.find("watchdog timeout"), std::string::npos);

  const RunResult resumed = run_cli("resume " + ck);
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("state: partial"), std::string::npos);
  std::remove(trace.c_str());
  std::remove(ck.c_str());
}

TEST(CliResilience, WatchdogWithoutCheckpointClaimsNoSnapshot) {
  // --timeout alone arms the guard with no dump path: the exit codes stay
  // 124 and 128+N, but nothing is saved, so nothing may claim a snapshot.
  const std::string trace = "/tmp/commscope_cli_hang_nock.trace";
  ASSERT_EQ(run_cli("run radix --threads=4 --save-trace=" + trace).exit_code,
            0);
  const RunResult hung =
      run_cli("replay " + trace + " --timeout=0.5",
              "COMMSCOPE_FAULT=\"sleep-at-event:20000;sleep-ms:3000\"");
  EXPECT_EQ(hung.exit_code, 124) << hung.output;
  EXPECT_NE(hung.output.find("watchdog timeout"), std::string::npos);
  EXPECT_NE(hung.output.find("no snapshot saved"), std::string::npos);
  EXPECT_EQ(hung.output.find("snapshot written"), std::string::npos)
      << hung.output;

  const RunResult killed =
      run_cli("replay " + trace + " --timeout=100",
              "COMMSCOPE_FAULT=kill-at-event:50000");
  EXPECT_EQ(killed.exit_code, 139) << killed.output;  // 128 + SIGSEGV
  EXPECT_NE(killed.output.find("fatal signal"), std::string::npos);
  EXPECT_EQ(killed.output.find("snapshot written"), std::string::npos)
      << killed.output;
  std::remove(trace.c_str());
}

TEST(CliResilience, CleanCheckpointedRunResumesAsComplete) {
  const std::string ck = "/tmp/commscope_cli_clean.ck";
  ASSERT_EQ(
      run_cli("run fft --threads=4 --checkpoint=" + ck).exit_code, 0);
  const RunResult resumed = run_cli("resume " + ck + " --pattern");
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("state: complete"), std::string::npos);
  EXPECT_NE(resumed.output.find("detected pattern:"), std::string::npos);
  std::remove(ck.c_str());
}

// --- observability: --quiet, --trace-out/--metrics-out, metrics, top -------

TEST(CliObservability, QuietSuppressesReportButFilesStillWritten) {
  const std::string metrics = "/tmp/commscope_cli_quiet.metrics";
  const RunResult r =
      run_cli("run fft --threads=4 -q --metrics-out=" + metrics);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("CommScope profile"), std::string::npos)
      << "report printed under --quiet";
  EXPECT_EQ(r.output.find("profiling overhead"), std::string::npos);
  std::ifstream in(metrics);
  ASSERT_TRUE(in.good()) << "--metrics-out not honored under --quiet";
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "# commscope-metrics v1");
  std::remove(metrics.c_str());
}

TEST(CliObservability, RunEmitsTraceJsonAndMetricsSnapshot) {
  const std::string trace = "/tmp/commscope_cli_obs.trace.json";
  const std::string metrics = "/tmp/commscope_cli_obs.metrics";
  // --mem-budget=1K forces the degradation ladder, so the trace must carry
  // degradation instants next to the loop spans and the metrics snapshot
  // must agree with the report's provenance section.
  const RunResult r = run_cli("run lu_cb --threads=4 --mem-budget=1K"
                              " --trace-out=" + trace +
                              " --metrics-out=" + metrics);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("trace events written"), std::string::npos);

  std::ifstream tin(trace);
  ASSERT_TRUE(tin.good());
  std::stringstream tbuf;
  tbuf << tin.rdbuf();
  const std::string json = tbuf.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"loop\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"degradation\""), std::string::npos);
  EXPECT_NE(json.find("lu:"), std::string::npos) << "loop labels unresolved";

  std::ifstream min(metrics);
  ASSERT_TRUE(min.good());
  std::stringstream mbuf;
  mbuf << min.rdbuf();
  EXPECT_NE(mbuf.str().find("profiler.accesses"), std::string::npos);
  EXPECT_NE(mbuf.str().find("profiler.degradations"), std::string::npos);
  std::remove(trace.c_str());
  std::remove(metrics.c_str());
}

TEST(CliObservability, MetricsAggregatesSnapshots) {
  const std::string m1 = "/tmp/commscope_cli_m1.metrics";
  const std::string m2 = "/tmp/commscope_cli_m2.metrics";
  ASSERT_EQ(run_cli("run fft --threads=4 -q --metrics-out=" + m1).exit_code,
            0);
  ASSERT_EQ(run_cli("run radix --threads=4 -q --metrics-out=" + m2).exit_code,
            0);
  const RunResult agg = run_cli("metrics " + m1 + " " + m2);
  EXPECT_EQ(agg.exit_code, 0) << agg.output;
  EXPECT_NE(agg.output.find("aggregated 2 snapshot(s)"), std::string::npos);

  const RunResult none = run_cli("metrics");
  EXPECT_EQ(none.exit_code, 2);
  EXPECT_NE(none.output.find("snapshot files"), std::string::npos);

  const std::string corrupt = "/tmp/commscope_cli_corrupt.metrics";
  {
    std::ofstream out(corrupt);
    out << "# commscope-metrics v1\ncounter x notanumber\n";
  }
  const RunResult bad = run_cli("metrics " + corrupt);
  EXPECT_EQ(bad.exit_code, 1);
  std::remove(m1.c_str());
  std::remove(m2.c_str());
  std::remove(corrupt.c_str());
}

TEST(CliObservability, TopRunsToCompletion) {
  const RunResult r = run_cli("top fft --threads=4 --interval=50");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("commscope top"), std::string::npos);
  EXPECT_NE(r.output.find("events"), std::string::npos);
  EXPECT_NE(r.output.find("run complete:"), std::string::npos);
}

TEST(CliObservability, TopConnectToDeadDaemonFails) {
  const RunResult r =
      run_cli("top --connect=/tmp/commscope_cli_no_daemon.sock"
              " --interval=50");
  EXPECT_EQ(r.exit_code, 1) << r.output;
}

TEST(CliObservability, MetricsPrometheusIsPureExposition) {
  const std::string m = "/tmp/commscope_cli_prom.metrics";
  ASSERT_EQ(run_cli("run fft --threads=4 -q --metrics-out=" + m).exit_code,
            0);
  const RunResult prom = run_cli("metrics --prometheus " + m);
  EXPECT_EQ(prom.exit_code, 0) << prom.output;
  // Machine-readable from byte 0: no banner, straight into the exposition.
  EXPECT_EQ(prom.output.compare(0, 7, "# TYPE "), 0) << prom.output;
  EXPECT_NE(prom.output.find("# TYPE commscope_profiler_accesses gauge"),
            std::string::npos)
      << prom.output;
  std::remove(m.c_str());
}

TEST(CliObservability, TraceMergeStitchesFilesAndRejectsBadInput) {
  // --merge is mandatory, and so is at least one input.
  EXPECT_EQ(run_cli("trace").exit_code, 2);
  EXPECT_EQ(run_cli("trace --merge").exit_code, 2);

  const std::string tj = "/tmp/commscope_cli_tm.trace.json";
  ASSERT_EQ(
      run_cli("run fft --threads=4 -q --trace-out=" + tj).exit_code, 0);
  const std::string merged = "/tmp/commscope_cli_tm.merged.json";
  const RunResult r = run_cli("trace --merge " + tj + " --out=" + merged);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("merged 1 trace(s)"), std::string::npos)
      << r.output;
  std::ifstream min(merged);
  ASSERT_TRUE(min.good());
  std::stringstream mbuf;
  mbuf << min.rdbuf();
  EXPECT_NE(mbuf.str().find("\"mergedFiles\":1"), std::string::npos);

  const std::string junk = "/tmp/commscope_cli_tm.junk";
  {
    std::ofstream out(junk);
    out << "this is not a trace\n";
  }
  const RunResult bad = run_cli("trace --merge " + junk);
  EXPECT_EQ(bad.exit_code, 1) << bad.output;
  EXPECT_NE(bad.output.find("not a Chrome trace"), std::string::npos);
  std::remove(tj.c_str());
  std::remove(merged.c_str());
  std::remove(junk.c_str());
}

TEST(CliObservability, HealthExitContractOkBreachUsageDeadSocket) {
  EXPECT_EQ(run_cli("health").exit_code, 2);  // no inputs: usage

  const std::string okf = "/tmp/commscope_cli_health_ok.metrics";
  {
    std::ofstream out(okf);
    out << "# commscope-metrics v1\n"
        << "counter serve.frames.ok 5 saturated=0\n";
  }
  const RunResult ok = run_cli("health " + okf);
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_NE(ok.output.find("health: ok"), std::string::npos);

  const std::string badf = "/tmp/commscope_cli_health_bad.metrics";
  {
    std::ofstream out(badf);
    out << "# commscope-metrics v1\n"
        << "counter serve.sessions.dropped 2 saturated=0\n"
        << "counter serve.wal.fsync_failures 1 saturated=0\n";
  }
  const RunResult breach = run_cli("health " + badf);
  EXPECT_EQ(breach.exit_code, 3) << breach.output;
  EXPECT_NE(breach.output.find("BREACH"), std::string::npos);
  EXPECT_NE(breach.output.find("2 SLO breach(es)"), std::string::npos)
      << breach.output;

  const RunResult dead =
      run_cli("health --connect=/tmp/commscope_cli_no_daemon.sock");
  EXPECT_EQ(dead.exit_code, 1) << dead.output;
  std::remove(okf.c_str());
  std::remove(badf.c_str());
}

// --- per-command flag vocabulary --------------------------------------------
//
// Unknown flags exit 2 for EVERY subcommand, and a flag that exists for one
// command is still unknown to a command that does not take it.

TEST(CliErrors, UnknownFlagsExitTwoAcrossAllSubcommands) {
  for (const char* cmd : {"list --bogus", "run fft --bogus=1",
                          "replay x --bogus", "resume x --bogus",
                          "classify x --bogus", "map x --bogus",
                          "stress --bogus", "metrics x --bogus",
                          "top fft --bogus", "report x --bogus",
                          "diff a b --bogus",
                          "serve --socket=/tmp/x.sock --bogus",
                          "trace x --bogus", "health x --bogus"}) {
    const RunResult r = run_cli(cmd);
    EXPECT_EQ(r.exit_code, 2) << cmd << "\n" << r.output;
    EXPECT_NE(r.output.find("unknown flag --bogus"), std::string::npos) << cmd;
  }
}

TEST(CliErrors, FlagsAreScopedToTheirCommands) {
  // --sockets belongs to map, not run; --threads belongs to run, not classify.
  const RunResult a = run_cli("run fft --sockets=2");
  EXPECT_EQ(a.exit_code, 2) << a.output;
  EXPECT_NE(a.output.find("unknown flag --sockets for 'run'"),
            std::string::npos);
  const RunResult b = run_cli("classify foo.matrix --threads=4");
  EXPECT_EQ(b.exit_code, 2) << b.output;
  EXPECT_NE(b.output.find("unknown flag --threads for 'classify'"),
            std::string::npos);
}

// --- flight recorder: epochs, report, diff ----------------------------------

TEST(CliRecorder, RunWritesEpochsAndReportRendersAllFormats) {
  const std::string epochs = "/tmp/commscope_cli_rec.epochs";
  const RunResult r = run_cli("run fft --threads=4 --epoch-every=2000"
                              " --epochs-out=" + epochs);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("epoch(s) written"), std::string::npos) << r.output;

  const RunResult text = run_cli("report " + epochs);
  EXPECT_EQ(text.exit_code, 0) << text.output;
  EXPECT_NE(text.output.find("epoch"), std::string::npos);
  EXPECT_NE(text.output.find("surviving"), std::string::npos);

  const RunResult json = run_cli("report " + epochs + " --format=json");
  EXPECT_EQ(json.exit_code, 0) << json.output;
  EXPECT_NE(json.output.find("\"epochs\":["), std::string::npos);

  const std::string html = "/tmp/commscope_cli_rec.html";
  const RunResult page =
      run_cli("report " + epochs + " --format=html --out=" + html);
  EXPECT_EQ(page.exit_code, 0) << page.output;
  std::ifstream in(html);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str().rfind("<!doctype html>", 0), 0u);
  EXPECT_NE(buf.str().find("</html>"), std::string::npos);

  const RunResult bad = run_cli("report " + epochs + " --format=pdf");
  EXPECT_EQ(bad.exit_code, 2);
  std::remove(epochs.c_str());
  std::remove(html.c_str());
}

TEST(CliRecorder, DiffOfARunAgainstItselfIsCleanExitZero) {
  const std::string epochs = "/tmp/commscope_cli_selfdiff.epochs";
  ASSERT_EQ(run_cli("run fft --threads=4 --epoch-every=2000 --epochs-out=" +
                    epochs).exit_code,
            0);
  const RunResult d = run_cli("diff " + epochs + " " + epochs);
  EXPECT_EQ(d.exit_code, 0) << d.output;
  EXPECT_NE(d.output.find("clean"), std::string::npos) << d.output;
  std::remove(epochs.c_str());
}

TEST(CliRecorder, DiffFlagsChangedCommunicationExitThree) {
  const std::string a = "/tmp/commscope_cli_diff_a.matrix";
  const std::string b = "/tmp/commscope_cli_diff_b.matrix";
  ASSERT_EQ(run_cli("run fft --threads=4 -q --save-matrix=" + a).exit_code, 0);
  ASSERT_EQ(run_cli("run radix --threads=4 -q --save-matrix=" + b).exit_code,
            0);
  const RunResult d = run_cli("diff " + a + " " + b);
  EXPECT_EQ(d.exit_code, 3) << d.output;  // the CI-gate contract
  EXPECT_NE(d.output.find("REGRESSED"), std::string::npos) << d.output;
  // Loosened thresholds must turn the same pair clean.
  const RunResult loose =
      run_cli("diff " + a + " " + b + " --threshold-l1=2 --threshold-cell=1");
  EXPECT_EQ(loose.exit_code, 0) << loose.output;
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(CliRecorder, ReplayReSliceIsBitIdenticalAtAnyBatchSize) {
  const std::string trace = "/tmp/commscope_cli_reslice.trace";
  const std::string ea = "/tmp/commscope_cli_reslice_a.epochs";
  const std::string eb = "/tmp/commscope_cli_reslice_b.epochs";
  ASSERT_EQ(run_cli("run radix --threads=4 -q --save-trace=" + trace)
                .exit_code,
            0);
  ASSERT_EQ(run_cli("replay " + trace + " -q --epochs=6 --epochs-out=" + ea)
                .exit_code,
            0);
  ASSERT_EQ(run_cli("replay " + trace +
                    " -q --epochs=6 --batch=32 --epochs-out=" + eb)
                .exit_code,
            0);
  std::ifstream fa(ea), fb(eb);
  ASSERT_TRUE(fa.good() && fb.good());
  std::stringstream sa, sb;
  sa << fa.rdbuf();
  sb << fb.rdbuf();
  EXPECT_EQ(sa.str(), sb.str())
      << "re-sliced timeline depends on --batch; replay determinism broken";
  const RunResult d = run_cli("diff " + ea + " " + eb);
  EXPECT_EQ(d.exit_code, 0) << d.output;
  std::remove(trace.c_str());
  std::remove(ea.c_str());
  std::remove(eb.c_str());
}

TEST(CliRecorder, CheckpointWritesEpochSidecar) {
  const std::string ck = "/tmp/commscope_cli_sidecar.ck";
  const RunResult r = run_cli("run fft --threads=4 -q --epoch-every=2000"
                              " --checkpoint=" + ck);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const RunResult report = run_cli("report " + ck + ".epochs");
  EXPECT_EQ(report.exit_code, 0)
      << "checkpoint did not leave a loadable epoch sidecar\n" << report.output;
  std::remove(ck.c_str());
  std::remove((ck + ".epochs").c_str());
}

TEST(CliRecorder, SaveTraceRunWritesAsManyCheckpointsAsItsReplay) {
  // `run --save-trace` profiles by replaying the trace it just recorded, so
  // it must write exactly the checkpoints `replay` of that trace writes with
  // the same flags — no extra final checkpoint from a second finalize.
  const std::string trace = "/tmp/commscope_cli_ckcount.trace";
  const std::string ck = "/tmp/commscope_cli_ckcount.ck";
  const std::string m = "/tmp/commscope_cli_ckcount.metrics";
  const std::string flags =
      " -q --epoch-every=1000 --checkpoint=" + ck + " --metrics-out=" + m;
  const auto written = [&](const std::string& command) {
    EXPECT_EQ(run_cli(command + flags).exit_code, 0) << command;
    std::stringstream text;
    text << std::ifstream(m).rdbuf();
    std::string name;
    std::string count = "none";
    while (text >> name) {
      if (name == "checkpoint.written" && text >> count) break;
    }
    return count;
  };
  const std::string run = written("run fft --threads=4 --save-trace=" + trace);
  EXPECT_NE(run, "none");
  EXPECT_EQ(run, written("replay " + trace));
  for (const std::string& f : {trace, ck, ck + ".epochs", m}) {
    std::remove(f.c_str());
  }
}

TEST(CliRecorder, PhasesAloneWriteNoEpochSidecar) {
  // Phase windows are the recorder's second partition, not an epoch
  // trigger: the checkpoint is written, the epoch sidecar is not.
  const std::string ck = "/tmp/commscope_cli_phase_sidecar.ck";
  std::remove((ck + ".epochs").c_str());
  const RunResult r =
      run_cli("run fft --threads=4 --phases=4096 --checkpoint=" + ck);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("phases detected:"), std::string::npos);
  EXPECT_TRUE(std::ifstream(ck).good()) << "no checkpoint written";
  EXPECT_FALSE(std::ifstream(ck + ".epochs").good())
      << "--phases alone wrote an epoch sidecar";
  std::remove(ck.c_str());
  std::remove((ck + ".epochs").c_str());
}

TEST(CliRecorder, BenchDiffGateCatchesInjectedRegression) {
  const std::string base = "/tmp/commscope_cli_bench_base.json";
  const std::string slow = "/tmp/commscope_cli_bench_slow.json";
  {
    std::ofstream out(base);
    out << "{\"bench\": \"ingest_throughput\", \"sweep\": [\n"
           "  {\"batch\": 0, \"events_per_sec\": 1e6, \"speedup\": 1},\n"
           "  {\"batch\": 64, \"events_per_sec\": 3e6, \"speedup\": 3}\n]}\n";
  }
  {
    std::ofstream out(slow);  // batch-64 throughput down 40%: past the gate
    out << "{\"bench\": \"ingest_throughput\", \"sweep\": [\n"
           "  {\"batch\": 0, \"events_per_sec\": 1e6, \"speedup\": 1},\n"
           "  {\"batch\": 64, \"events_per_sec\": 1.8e6, \"speedup\": 1.8}\n]}\n";
  }
  const RunResult self_diff = run_cli("diff --bench " + base + " " + base);
  EXPECT_EQ(self_diff.exit_code, 0) << self_diff.output;
  const RunResult gate = run_cli("diff --bench " + base + " " + slow);
  EXPECT_EQ(gate.exit_code, 3) << gate.output;
  EXPECT_NE(gate.output.find("REGRESSED"), std::string::npos) << gate.output;
  // A wider tolerance waves the same pair through.
  const RunResult loose =
      run_cli("diff --bench --threshold=0.5 " + base + " " + slow);
  EXPECT_EQ(loose.exit_code, 0) << loose.output;
  std::remove(base.c_str());
  std::remove(slow.c_str());
}

TEST(CliRecorder, DiffRejectsMixedAndUnknownFormats) {
  const std::string m = "/tmp/commscope_cli_mixed.matrix";
  const std::string e = "/tmp/commscope_cli_mixed.epochs";
  ASSERT_EQ(run_cli("run fft --threads=4 -q --save-matrix=" + m +
                    " --epoch-every=2000 --epochs-out=" + e).exit_code,
            0);
  const RunResult mixed = run_cli("diff " + m + " " + e);
  EXPECT_EQ(mixed.exit_code, 1) << mixed.output;
  EXPECT_NE(mixed.output.find("cannot compare"), std::string::npos);
  const std::string junk = "/tmp/commscope_cli_junk.txt";
  {
    std::ofstream out(junk);
    out << "hello world\n";
  }
  const RunResult unknown = run_cli("diff " + junk + " " + junk);
  EXPECT_EQ(unknown.exit_code, 1) << unknown.output;
  std::remove(m.c_str());
  std::remove(e.c_str());
  std::remove(junk.c_str());
}

// --- profile-as-a-service: serve -------------------------------------------

TEST(CliServe, MissingSocketIsUsageError) {
  const RunResult r = run_cli("serve");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--socket"), std::string::npos);
}

TEST(CliServe, UnbindableSocketPathFailsWithDiagnostic) {
  const RunResult r =
      run_cli("serve --socket=/nonexistent_dir_zz9/commscope.sock");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("commscope:"), std::string::npos);
}

TEST(CliServe, ScrapeAgainstDeadDaemonFails) {
  const RunResult r =
      run_cli("serve --socket=/tmp/commscope_cli_nobody.sock --scrape");
  EXPECT_EQ(r.exit_code, 1) << r.output;
}

TEST(CliServe, RunShipsToDaemonAndMergedTimelineRenders) {
  const std::string socket = "/tmp/commscope_cli_serve.sock";
  const std::string merged = "/tmp/commscope_cli_serve.epochs";
  const std::string metrics = "/tmp/commscope_cli_serve.metrics";
  std::remove(socket.c_str());

  // Background daemon: exits on its own once the single shipped session
  // disconnects; --timeout is the watchdog backstop so a failure here can't
  // hang the suite. The shipper's retry/backoff absorbs the startup race.
  const std::string daemon_cmd =
      g_cli + " serve --socket=" + socket + " --sessions=1 -q" +
      " --epochs-out=" + merged + " --metrics-out=" + metrics +
      " --timeout=30 2>/dev/null &";
  ASSERT_EQ(std::system(daemon_cmd.c_str()), 0);

  const RunResult run = run_cli("run fft --threads=4 --epoch-every=2000"
                                " --ship-to=" + socket + " --ship-session=77");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("shipped"), std::string::npos) << run.output;

  // Wait for the daemon to notice the disconnect, seal, and write outputs.
  RunResult report;
  for (int i = 0; i < 100; ++i) {
    report = run_cli("report " + merged);
    if (report.exit_code == 0) break;
    std::system("sleep 0.1");
  }
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("surviving"), std::string::npos);

  std::ifstream min(metrics);
  ASSERT_TRUE(min.good()) << "daemon wrote no metrics snapshot";
  std::stringstream mbuf;
  mbuf << min.rdbuf();
  EXPECT_NE(mbuf.str().find("serve.epochs.merged"), std::string::npos);
  std::remove(merged.c_str());
  std::remove(metrics.c_str());
}

TEST(CliServe, BogusFsyncPolicyIsUsageError) {
  const RunResult r =
      run_cli("serve --socket=/tmp/commscope_cli_fsync.sock --fsync=bogus");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("per-ack"), std::string::npos) << r.output;
}

TEST(CliServe, SignalDrainExitsZeroAndLeavesSnapshot) {
  // SIGTERM and SIGINT both request a graceful drain: seal sessions, final
  // snapshot, exit 0 — the exit-code contract systemd/K8s stop paths rely
  // on. A non-zero exit here means the handler path regressed to the
  // default die-by-signal disposition.
  for (const std::string sig : {"TERM", "INT"}) {
    const std::string socket = "/tmp/commscope_cli_drain_" + sig + ".sock";
    const std::string state = "/tmp/commscope_cli_drain_" + sig + ".state";
    const std::string status = state + ".exit";
    std::remove(socket.c_str());
    std::remove(status.c_str());
    std::remove((state + "/wal.log").c_str());
    std::remove((state + "/snapshot.commscope").c_str());
    const std::string script =
        g_cli + " serve --socket=" + socket + " --state-dir=" + state +
        " -q 2>/dev/null & pid=$!; i=0;"
        " while [ ! -S " + socket + " ] && [ $i -lt 50 ];"
        " do sleep 0.1; i=$((i+1)); done;"
        " kill -" + sig + " $pid; wait $pid; echo $? > " + status;
    ASSERT_EQ(std::system(script.c_str()), 0);
    std::ifstream in(status);
    std::string code;
    in >> code;
    EXPECT_EQ(code, "0") << "SIG" << sig << " drain exit code";
    std::ifstream snap(state + "/snapshot.commscope");
    EXPECT_TRUE(snap.good()) << "drain left no final snapshot (" << sig
                             << ")";
    std::remove(status.c_str());
  }
}

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc > 1) {
    g_cli = argv[1];
  } else {
    g_cli = "./build/tools/commscope";  // manual-invocation fallback
  }
  return RUN_ALL_TESTS();
}
